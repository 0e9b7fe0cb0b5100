// RdmaCheck: an opt-in shadow-state validator for the RDMA protocol stack.
//
// The zero-copy mechanism (§3.2/§3.3) is safe only because of a delicate
// protocol contract: memory regions stay registered while remote writes are
// in flight, one-sided writes land in MTU segments at ascending addresses,
// and the receiver polls a flag byte whose validity depends on that ordering.
// RdmaCheck exploits the deterministic discrete-event fabric to check that
// contract exactly, the way TSan-style vector-clock checkers validate
// shared-memory protocols:
//
//   (a) every remote write/read targets a live MR with a matching rkey —
//       use-after-deregister, stale-rkey-after-rebuild and out-of-bounds
//       RemoteSlices are distinct diagnostic kinds;
//   (b) no two in-flight one-sided writes target overlapping remote ranges
//       without a happens-before edge. In the simulated RC transport the HB
//       edges are exactly (1) same-QP FIFO execution (one WR in flight per
//       QP engine) and (2) wire completion: a WR's bytes have all landed
//       before its completion, and anything posted after observing that
//       completion is ordered behind it. A write posted while an
//       overlapping write from a *different* QP is still in flight has no
//       such edge — a remote race;
//   (c) segments land at ascending addresses within each WR and each fabric
//       transfer, and a receiver never trusts a completion flag before a
//       write covering the flag byte has actually landed;
//   (d) at teardown no MR stays registered and no arena carve-out is still
//       live when its arena is destroyed.
//
// Violations produce deterministic, trace-linked diagnostics (host, edge,
// WR id, virtual timestamp) and fail the run. The checker is installed
// process-wide (mirroring sim::Tracer); when not installed every hook is a
// single pointer-load-and-branch, so the disabled cost is near zero.
#ifndef RDMADL_SRC_CHECK_RDMA_CHECK_H_
#define RDMADL_SRC_CHECK_RDMA_CHECK_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/check/mutation.h"

namespace rdmadl {
namespace check {

enum class DiagKind {
  kUseAfterDeregister,   // Segment landed after the target MR was deregistered.
  kStaleRkey,            // Write/read posted with an rkey that is no longer (or
                         // was never) live — e.g. held across an arena rebuild.
  kOutOfBounds,          // Target range escapes the MR the rkey names.
  kRemoteRace,           // Overlapping in-flight writes with no HB edge.
  kNonAscendingSegment,  // Segment landed out of ascending-address order.
  kPrematureFlagRead,    // Completion flag trusted before its byte landed.
  kLeakedMemoryRegion,   // MR still registered at Finalize().
  kLeakedArenaBlock,     // Arena destroyed with live carve-outs.
  kQpDestroyedInFlight,  // QP destroyed (e.g. device teardown) with a WR in
                         // flight: its wire events would touch freed state.
  kTornRead,             // Flag trusted while a write into its guarded payload
                         // range still had undelivered bytes: the reader would
                         // observe a half-written payload.
  kSgExtentOutOfOrder,   // Segment of a scatter/gather WR landed in an extent
                         // other than the one the list-order cursor expects:
                         // extents of one SG-WR must fill in posting order.
  kFlagInSgList,         // A declared completion flag rides inside an SG list
                         // somewhere other than the final byte of the final
                         // extent: sibling extents land after it, so the flag
                         // is readable before the payload exists (§3.2).
};

const char* DiagKindName(DiagKind kind);

struct Diagnostic {
  DiagKind kind = DiagKind::kUseAfterDeregister;
  std::string message;  // Full human-readable report (host, edge, WR, time).
  int src_host = -1;    // Initiator (-1 when not applicable).
  int dst_host = -1;    // Target host of the access (-1 when not applicable).
  uint32_t qp_num = 0;
  uint64_t wr_id = 0;
  int64_t vtime_ns = 0;  // Virtual time of the violating event.
};

// One extent of a scatter/gather write, as the checker sees it (the verbs
// layer owns the full descriptor; the shadow needs only the target range).
struct SgExtentInfo {
  uint64_t remote_addr = 0;
  uint64_t length = 0;
};

struct RdmaCheckOptions {
  // Auto-register flag bytes at their first observed poll miss (FlagPolled)
  // even without a FlagLocation declaration, and count polls. Off by default:
  // the collective planes set flags through paths the verbs hooks never see
  // (in-network emulation, staged TCP), and tracking those would manufacture
  // premature-read false positives. The schedule explorer's harness enables
  // it — under exploration every world is built with the checker installed,
  // so every flag's covering write *is* visible.
  bool track_polled_flags = false;
};

// The checker itself. Construction installs it as the process-wide current
// checker; destruction uninstalls. Installs nest LIFO: constructing a second
// checker shadows the first until the second is destroyed (the schedule
// explorer installs a fresh checker per replay under the env-gated test
// listener's checker; the outer checker simply observes nothing meanwhile).
// All hooks below route through Current(), so everything built before the
// checker existed is simply invisible to it — installing mid-world is safe,
// events about untracked objects are ignored.
class RdmaCheck {
 public:
  explicit RdmaCheck(RdmaCheckOptions options = RdmaCheckOptions{});
  ~RdmaCheck();

  RdmaCheck(const RdmaCheck&) = delete;
  RdmaCheck& operator=(const RdmaCheck&) = delete;

  static RdmaCheck* Current() { return current_; }

  // ---- verbs layer (NicDevice / QueuePair) ----
  void MrRegistered(int host, uint64_t addr, uint64_t length, uint32_t lkey, uint32_t rkey,
                    int64_t now_ns);
  void MrDeregistered(int host, uint32_t lkey, uint32_t rkey, int64_t now_ns);
  // A one-sided write entered the QP engine. Re-posts of the same
  // (src, qp, wr_id) are transport retries: the delivered prefix resets (a
  // retry rewrites from offset 0) and no new race window opens.
  void WritePosted(int src_host, int dst_host, uint32_t qp_num, uint64_t wr_id,
                   uint64_t remote_addr, uint64_t length, uint32_t rkey, int64_t now_ns);
  // A segment of an in-flight write landed at the target.
  void WriteSegment(int src_host, uint32_t qp_num, uint64_t wr_id, uint64_t offset,
                    uint64_t length, int64_t now_ns);
  // Wire completion (success or retry-exhaustion error): the HB edge that
  // closes the write's race window. SG-WRs finish through here too (one
  // completion per WQE).
  void WriteFinished(int src_host, uint32_t qp_num, uint64_t wr_id, int64_t now_ns);
  // A scatter/gather write entered the QP engine: one WQE, many extents, all
  // under one rkey. Re-posts of the same (src, qp, wr_id) are transport
  // retries — every extent's delivered prefix and the list cursor reset.
  // Checks each extent's target, races against all in-flight writes, and that
  // no declared flag byte rides in the list except as the final byte of the
  // final extent (kFlagInSgList).
  void SgWritePosted(int src_host, int dst_host, uint32_t qp_num, uint64_t wr_id,
                     const std::vector<SgExtentInfo>& extents, uint32_t rkey, int64_t now_ns);
  // A segment of an in-flight SG write landed in extent |extent_idx| at
  // |offset| within that extent. Extents must fill in list order
  // (kSgExtentOutOfOrder) and ascend within each extent
  // (kNonAscendingSegment).
  void SgWriteSegment(int src_host, uint32_t qp_num, uint64_t wr_id, size_t extent_idx,
                      uint64_t offset, uint64_t length, int64_t now_ns);
  // A one-sided read entered the QP engine (validated against the MR shadow
  // only; reads race with nothing in this model).
  void ReadPosted(int src_host, int target_host, uint32_t qp_num, uint64_t wr_id,
                  uint64_t remote_addr, uint64_t length, uint32_t rkey, int64_t now_ns);
  // A QP was destroyed (device teardown). Destroying a QP
  // whose write is still in flight is a protocol violation: the pending wire
  // events reference the dead QP.
  void QpDestroyed(int host, uint32_t qp_num, int64_t now_ns);

  // ---- fabric layer ----
  // Tracks ascending-address delivery per transfer (covers the TCP plane and
  // anything else that bypasses the verbs hooks). Returns a nonzero id.
  uint64_t TransferStarted(int src_host, int dst_host, uint64_t bytes, int64_t now_ns);
  void TransferSegment(uint64_t transfer_id, uint64_t offset, uint64_t length, int64_t now_ns);
  void TransferFinished(uint64_t transfer_id);

  // ---- arena allocator ----
  void ArenaBlockAllocated(const void* arena, const std::string& arena_name, uint64_t offset,
                           size_t bytes);
  void ArenaBlockFreed(const void* arena, uint64_t offset);
  void ArenaDestroyed(const void* arena);

  // ---- flag-byte protocol (§3.2 tail flag / §3.3 metadata tail flag) ----
  // Declares |flag_addr| on |dst_host| a completion flag for |edge_key|.
  void FlagLocation(int dst_host, const void* flag_addr, const std::string& edge_key);
  // The degraded (staged-TCP) path sets the flag locally: a legitimate HB
  // edge — the payload memcpy happened-before on the same simulated thread.
  void FlagSetLocally(int dst_host, const void* flag_addr, int64_t now_ns);
  void FlagCleared(int dst_host, const void* flag_addr);
  // The receiver observed the flag nonzero and is about to act on the
  // payload. Valid only if a tracked write covering the flag byte has landed
  // (or the flag was set locally) since the last clear — and, when a guard
  // range is declared, no in-flight write into that range still has
  // undelivered bytes (torn read).
  void FlagTrusted(int dst_host, const void* flag_addr, int64_t now_ns);
  void FlagForgotten(int dst_host, const void* flag_addr);
  // The receiver polled the flag and saw it still zero — a miss. With
  // track_polled_flags set this auto-registers the flag byte and counts the
  // miss; the poll counters feed the stall detector's "what was the run
  // waiting on" diagnostic and reset whenever the flag makes progress.
  void FlagPolled(int dst_host, const void* flag_addr, int64_t now_ns);
  // Declares [guard_base, guard_base + guard_bytes) the payload protected by
  // |flag_addr|: trusting the flag asserts the whole range has landed.
  void FlagGuards(int dst_host, const void* flag_addr, const void* guard_base,
                  uint64_t guard_bytes);

  // ---- congestion control ----
  // Records ECN/DCQCN activity so congestion-era tests can assert both that
  // the flag contract held *and* that throttling actually happened — a pass
  // with zero signals would be vacuous. Pure counters: rate limiting changes
  // timing, never ordering, so there is nothing further to shadow.
  enum class CongestionSignal { kEcnMark = 0, kCnp = 1, kRateDecrease = 2 };
  void CongestionEvent(CongestionSignal signal) {
    ++congestion_signals_[static_cast<int>(signal)];
  }
  uint64_t congestion_signal_count(CongestionSignal signal) const {
    return congestion_signals_[static_cast<int>(signal)];
  }

  // ---- stall introspection (schedule explorer's deadlock detector) ----
  // Flags the receivers are still polling for (missed at least one poll since
  // the flag last made progress) and writes still in flight: together, what a
  // stuck run was waiting on.
  struct PendingFlag {
    int host = -1;
    uint64_t addr = 0;
    std::string edge_key;
    uint64_t polls = 0;       // Misses since the last cover/local-set.
    int64_t last_poll_ns = 0;
  };
  struct PendingWrite {
    int src_host = -1;
    int dst_host = -1;
    uint32_t qp_num = 0;
    uint64_t wr_id = 0;
    uint64_t remote_addr = 0;
    uint64_t length = 0;
    uint64_t delivered = 0;
    int64_t posted_at_ns = 0;
  };
  std::vector<PendingFlag> PendingFlags() const;
  std::vector<PendingWrite> PendingWrites() const;

  // Runs the teardown checks (leaked MRs) once and returns every diagnostic
  // recorded so far. Idempotent.
  const std::vector<Diagnostic>& Finalize();

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  int count(DiagKind kind) const;
  // All diagnostics, one per line, for test failure messages.
  std::string Report() const;

 private:
  struct MrShadow {
    uint64_t addr = 0;
    uint64_t length = 0;
    uint32_t lkey = 0;
    int64_t registered_at_ns = 0;
  };
  struct DeadMr {
    uint64_t addr = 0;
    uint64_t length = 0;
    int64_t deregistered_at_ns = 0;
  };
  struct SgExtentShadow {
    uint64_t remote_addr = 0;
    uint64_t length = 0;
    uint64_t delivered = 0;  // Ascending prefix landed within this extent.
  };
  struct InflightWrite {
    int dst_host = -1;
    uint64_t remote_addr = 0;
    uint64_t length = 0;
    uint32_t rkey = 0;
    uint64_t delivered = 0;  // Ascending prefix landed so far.
    int64_t posted_at_ns = 0;
    bool dead_mr_reported = false;  // One use-after-deregister per WR.
    // Non-empty for SG-WRs: the per-extent target ranges and delivery
    // cursors. remote_addr/length then mirror extents[0].remote_addr and the
    // summed bytes; every range-based scan (races, torn reads, QP teardown)
    // walks the extents instead.
    std::vector<SgExtentShadow> extents;
    size_t cursor = 0;  // Extent currently expected to receive segments.
  };
  struct TransferShadow {
    int src_host = -1;
    int dst_host = -1;
    uint64_t expected_offset = 0;
  };
  struct ArenaShadow {
    std::string name;
    std::map<uint64_t, size_t> live;  // offset -> rounded bytes
  };
  struct FlagShadow {
    std::string edge_key;
    bool landed = false;  // A covering write landed (or local set) since clear.
    uint64_t guard_lo = 0;  // Guarded payload range; lo == hi means no guard.
    uint64_t guard_hi = 0;
    uint64_t polls = 0;  // Misses since the flag last made progress.
    int64_t last_poll_ns = 0;
  };

  using WriteKey = std::tuple<int, uint32_t, uint64_t>;  // (src_host, qp, wr_id)
  using MrKey = std::pair<int, uint32_t>;                // (host, rkey)

  void Emit(DiagKind kind, std::string message, int src_host, int dst_host, uint32_t qp_num,
            uint64_t wr_id, int64_t now_ns);
  // Checks a posted one-sided target range against the MR shadow; emits
  // kStaleRkey / kOutOfBounds. Returns true if the target is valid.
  bool CheckTarget(const char* verb, int src_host, int dst_host, uint32_t qp_num,
                   uint64_t wr_id, uint64_t remote_addr, uint64_t length, uint32_t rkey,
                   int64_t now_ns);
  // Marks any watched flag bytes covered by [addr, addr+len) as landed.
  void CoverFlags(int dst_host, uint64_t addr, uint64_t len);
  // Race scan: does [remote_addr, remote_addr+length) on dst_host overlap any
  // in-flight write (per extent for SG-WRs) from a different (src, qp)?
  // Emits kRemoteRace for each conflicting WR.
  void CheckRaces(int src_host, int dst_host, uint32_t qp_num, uint64_t wr_id,
                  uint64_t remote_addr, uint64_t length, int64_t now_ns);

  static RdmaCheck* current_;

  RdmaCheck* parent_ = nullptr;  // Shadowed checker restored at destruction.
  RdmaCheckOptions options_;
  std::vector<Diagnostic> diagnostics_;
  bool finalized_ = false;
  uint64_t next_transfer_id_ = 1;

  std::map<MrKey, MrShadow> live_mrs_;
  std::map<MrKey, DeadMr> dead_mrs_;  // rkey graveyard: classifies stale rkeys.
  std::map<WriteKey, InflightWrite> inflight_;
  std::map<uint64_t, TransferShadow> transfers_;
  std::map<const void*, ArenaShadow> arenas_;
  uint64_t congestion_signals_[3] = {0, 0, 0};
  // (host, flag address) -> shadow bit.
  std::map<std::pair<int, uint64_t>, FlagShadow> flags_;
};

// ---- dispatch hooks -------------------------------------------------------
// One pointer load + branch when no checker is installed.

inline void OnMrRegistered(int host, uint64_t addr, uint64_t length, uint32_t lkey,
                           uint32_t rkey, int64_t now_ns) {
  if (RdmaCheck* c = RdmaCheck::Current()) c->MrRegistered(host, addr, length, lkey, rkey, now_ns);
}
inline void OnMrDeregistered(int host, uint32_t lkey, uint32_t rkey, int64_t now_ns) {
  if (RdmaCheck* c = RdmaCheck::Current()) c->MrDeregistered(host, lkey, rkey, now_ns);
}
inline void OnWritePosted(int src_host, int dst_host, uint32_t qp_num, uint64_t wr_id,
                          uint64_t remote_addr, uint64_t length, uint32_t rkey,
                          int64_t now_ns) {
  if (RdmaCheck* c = RdmaCheck::Current()) {
    c->WritePosted(src_host, dst_host, qp_num, wr_id, remote_addr, length, rkey, now_ns);
  }
}
inline void OnWriteSegment(int src_host, uint32_t qp_num, uint64_t wr_id, uint64_t offset,
                           uint64_t length, int64_t now_ns) {
  if (RdmaCheck* c = RdmaCheck::Current()) {
    c->WriteSegment(src_host, qp_num, wr_id, offset, length, now_ns);
  }
}
inline void OnWriteFinished(int src_host, uint32_t qp_num, uint64_t wr_id, int64_t now_ns) {
  if (RdmaCheck* c = RdmaCheck::Current()) c->WriteFinished(src_host, qp_num, wr_id, now_ns);
}
inline void OnSgWriteSegment(int src_host, uint32_t qp_num, uint64_t wr_id, size_t extent_idx,
                             uint64_t offset, uint64_t length, int64_t now_ns) {
  if (RdmaCheck* c = RdmaCheck::Current()) {
    c->SgWriteSegment(src_host, qp_num, wr_id, extent_idx, offset, length, now_ns);
  }
}
inline void OnReadPosted(int src_host, int target_host, uint32_t qp_num, uint64_t wr_id,
                         uint64_t remote_addr, uint64_t length, uint32_t rkey, int64_t now_ns) {
  if (RdmaCheck* c = RdmaCheck::Current()) {
    c->ReadPosted(src_host, target_host, qp_num, wr_id, remote_addr, length, rkey, now_ns);
  }
}
inline void OnQpDestroyed(int host, uint32_t qp_num, int64_t now_ns) {
  if (RdmaCheck* c = RdmaCheck::Current()) c->QpDestroyed(host, qp_num, now_ns);
}
inline uint64_t OnTransferStarted(int src_host, int dst_host, uint64_t bytes, int64_t now_ns) {
  if (RdmaCheck* c = RdmaCheck::Current()) {
    return c->TransferStarted(src_host, dst_host, bytes, now_ns);
  }
  return 0;
}
inline void OnTransferSegment(uint64_t transfer_id, uint64_t offset, uint64_t length,
                              int64_t now_ns) {
  if (transfer_id == 0) return;
  if (RdmaCheck* c = RdmaCheck::Current()) {
    c->TransferSegment(transfer_id, offset, length, now_ns);
  }
}
inline void OnTransferFinished(uint64_t transfer_id) {
  if (transfer_id == 0) return;
  if (RdmaCheck* c = RdmaCheck::Current()) c->TransferFinished(transfer_id);
}
inline void OnArenaBlockAllocated(const void* arena, const std::string& arena_name,
                                  uint64_t offset, size_t bytes) {
  if (RdmaCheck* c = RdmaCheck::Current()) {
    c->ArenaBlockAllocated(arena, arena_name, offset, bytes);
  }
}
inline void OnArenaBlockFreed(const void* arena, uint64_t offset) {
  if (RdmaCheck* c = RdmaCheck::Current()) c->ArenaBlockFreed(arena, offset);
}
inline void OnArenaDestroyed(const void* arena) {
  if (RdmaCheck* c = RdmaCheck::Current()) c->ArenaDestroyed(arena);
}
inline void OnFlagLocation(int dst_host, const void* flag_addr, const std::string& edge_key) {
  if (RdmaCheck* c = RdmaCheck::Current()) c->FlagLocation(dst_host, flag_addr, edge_key);
}
inline void OnFlagSetLocally(int dst_host, const void* flag_addr, int64_t now_ns) {
  if (RdmaCheck* c = RdmaCheck::Current()) c->FlagSetLocally(dst_host, flag_addr, now_ns);
}
inline void OnFlagCleared(int dst_host, const void* flag_addr) {
  if (RdmaCheck* c = RdmaCheck::Current()) c->FlagCleared(dst_host, flag_addr);
}
inline void OnFlagTrusted(int dst_host, const void* flag_addr, int64_t now_ns) {
  if (RdmaCheck* c = RdmaCheck::Current()) c->FlagTrusted(dst_host, flag_addr, now_ns);
}
inline void OnFlagForgotten(int dst_host, const void* flag_addr) {
  if (RdmaCheck* c = RdmaCheck::Current()) c->FlagForgotten(dst_host, flag_addr);
}
inline void OnFlagPolled(int dst_host, const void* flag_addr, int64_t now_ns) {
  if (RdmaCheck* c = RdmaCheck::Current()) c->FlagPolled(dst_host, flag_addr, now_ns);
}
// Whether a poll of |flag| lets the caller act on the payload it guards: the
// flag is set, or the seeded kPrematureFlagTrust bug trusts it anyway. Pure;
// a poller that predicts a miss with it reports the poll with OnFlagPolled.
inline bool FlagReady(const uint8_t* flag) {
  return *flag != 0 || MutationEnabled(kPrematureFlagTrust);
}
// The one poll step (§4 polling-async) of the zero-copy receive and the
// collective flag pollers: FlagReady plus its checker hooks. An unset flag's
// poll is reported; a trusted flag is reported. Callers clear flags.
inline bool PollFlag(int host, const uint8_t* flag, int64_t now_ns) {
  if (*flag == 0) OnFlagPolled(host, flag, now_ns);
  if (!FlagReady(flag)) return false;
  OnFlagTrusted(host, flag, now_ns);
  return true;
}
inline void OnFlagGuards(int dst_host, const void* flag_addr, const void* guard_base,
                         uint64_t guard_bytes) {
  if (RdmaCheck* c = RdmaCheck::Current()) {
    c->FlagGuards(dst_host, flag_addr, guard_base, guard_bytes);
  }
}
inline void OnCongestionSignal(RdmaCheck::CongestionSignal signal) {
  if (RdmaCheck* c = RdmaCheck::Current()) c->CongestionEvent(signal);
}

}  // namespace check
}  // namespace rdmadl

#endif  // RDMADL_SRC_CHECK_RDMA_CHECK_H_

// ibverbs-style RDMA layer over the simulated fabric.
//
// One NicDevice per host exposes the verbs the paper's device library (§3.1)
// is built on: memory-region registration (with per-page pinning cost and a
// hardware count limit), queue pairs with one-sided RDMA_WRITE / RDMA_READ and
// two-sided SEND / RECV work requests, and completion queues.
//
// Semantics preserved from real reliable-connected (RC) transports:
//   * WRs on one QP execute in FIFO order.
//   * One-sided writes deliver bytes at the target in ascending address
//     order, segment by segment (the property §3.2's tail-flag protocol
//     needs). The segments are *actually copied* into the destination
//     buffer as virtual time advances, so a poller on the remote "CPU" can
//     observe partially-written tensors exactly as on real hardware.
//   * rkey and bounds checks happen at the target NIC; violations surface as
//     error completions, not crashes.
//   * SENDs require a posted RECV at the target; arrivals wait (RNR-style)
//     until one is posted. Overlong messages complete with an error.
#ifndef RDMADL_SRC_RDMA_VERBS_H_
#define RDMADL_SRC_RDMA_VERBS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/net/fabric.h"
#include "src/util/status.h"

namespace rdmadl {
namespace rdma {

// Capped exponential backoff: min(base << attempt, cap), safe for any attempt
// (the naive `base << attempt` overflows int64 past attempt ~40 and goes
// negative, which would schedule events in the past). Shared by the RC
// transport-retry schedule and the DCQCN CNP moderation timer.
inline int64_t CappedBackoffNs(int64_t base_ns, int attempt, int64_t cap_ns) {
  if (base_ns <= 0) return 0;
  if (cap_ns <= 0) cap_ns = std::numeric_limits<int64_t>::max();
  if (base_ns >= cap_ns) return cap_ns;
  // base << attempt overflows (or exceeds the cap) exactly when
  // base > cap >> attempt; attempt >= 63 always saturates.
  if (attempt < 0) attempt = 0;
  if (attempt >= 63 || base_ns > (cap_ns >> attempt)) return cap_ns;
  return base_ns << attempt;
}

// The transport retransmission delay before attempt |attempt| (0-based).
inline int64_t TransportBackoffNs(const net::CostModel& cost, int attempt) {
  return CappedBackoffNs(cost.rdma_transport_retry_base_ns, attempt,
                         cost.rdma_transport_retry_max_ns);
}

// A registered, RDMA-accessible memory region.
struct MemoryRegion {
  uint64_t addr = 0;     // Start address (process pointer value).
  uint64_t length = 0;   // Bytes covered.
  uint32_t lkey = 0;     // Local access key.
  uint32_t rkey = 0;     // Remote access key.

  bool Contains(uint64_t a, uint64_t len) const {
    return a >= addr && len <= length && a - addr <= length - len;
  }
};

enum class Opcode { kWrite, kRead, kSend, kRecv };

const char* OpcodeName(Opcode op);

// One extent of a scatter/gather work request: a local source range and its
// remote target. Unlike classic ibverbs SGEs (local gather into one contiguous
// remote range), these carry per-extent remote addresses — the extended-WR
// shape variable-length block transfer needs (fabric-lib style): one WQE, one
// doorbell, one wire completion moving many disjoint ranges.
struct SgExtent {
  uint64_t local_addr = 0;
  uint64_t remote_addr = 0;
  uint64_t length = 0;
};

struct SendWorkRequest {
  uint64_t wr_id = 0;
  Opcode opcode = Opcode::kWrite;
  uint64_t local_addr = 0;
  uint32_t lkey = 0;
  uint64_t length = 0;
  // For kWrite / kRead only:
  uint64_t remote_addr = 0;
  uint32_t rkey = 0;
  // When false, the payload memcpy is elided (virtual-memory benchmark mode);
  // timing, ordering and completion semantics are unchanged.
  bool copy_bytes = true;
  // Scatter/gather list (kWrite only). When non-empty, local_addr /
  // remote_addr / length above are ignored: the WR moves every extent — all
  // under the single lkey/rkey pair — as ONE work request. The extents share
  // one doorbell, one NIC processing pass, one WQE-engine charge for the
  // summed bytes, one wire stream (delivered extent-by-extent in list order,
  // ascending addresses within each extent), one transport-retry budget, and
  // ONE completion. Extents may target arbitrary, even descending, remote
  // addresses relative to each other; only the intra-extent order is
  // guaranteed — which is why a completion flag must never ride in the list
  // except as the final byte of the final extent (RdmaCheck enforces this).
  std::vector<SgExtent> sge = {};

  // The extents the WR moves, as a view: its SG list, or the one extent the
  // plain fields describe (no list is built for a plain WR).
  size_t NumExtents() const { return sge.empty() ? 1 : sge.size(); }
  SgExtent Extent(size_t i) const {
    return sge.empty() ? SgExtent{local_addr, remote_addr, length} : sge[i];
  }
  uint64_t TotalBytes() const {
    if (sge.empty()) return length;
    uint64_t total = 0;
    for (const SgExtent& e : sge) total += e.length;
    return total;
  }
};

struct RecvWorkRequest {
  uint64_t wr_id = 0;
  uint64_t addr = 0;
  uint32_t lkey = 0;
  uint64_t length = 0;
};

struct WorkCompletion {
  uint64_t wr_id = 0;
  Opcode opcode = Opcode::kWrite;
  Status status;
  uint64_t byte_len = 0;
  uint32_t qp_num = 0;
};

class QueuePair;
class NicDevice;

// Completion queue. Entries are polled non-blockingly; a completion handler
// can be installed to model a dedicated polling thread (the device library's
// CQ poller contexts use this).
class CompletionQueue {
 public:
  explicit CompletionQueue(NicDevice* nic) : nic_(nic) {}

  // Pops the oldest completion into |wc|; returns false if empty.
  bool Poll(WorkCompletion* wc);

  size_t depth() const { return entries_.size(); }

  // Invoked (at CQE-generation virtual time) whenever an entry is pushed.
  // The handler typically polls the queue dry.
  void SetCompletionHandler(std::function<void()> handler) { handler_ = std::move(handler); }

  NicDevice* nic() const { return nic_; }

 private:
  friend class QueuePair;
  void Push(WorkCompletion wc);

  NicDevice* nic_;
  std::deque<WorkCompletion> entries_;
  std::function<void()> handler_;
};

// QP lifecycle, collapsed from the ibverbs INIT/RTR/RTS/ERR diagram to the
// two states the simulation distinguishes: serving WRs, or errored (after
// transport retry exhaustion) with everything queued flushed.
enum class QpState { kReady, kError };

// Reliable-connected queue pair.
//
// Transport reliability: a wire-level segment loss (fault injection) is
// retransmitted transparently with exponential backoff up to
// cost.rdma_transport_retry_count attempts, like the RC retry_cnt machinery.
// Exhaustion transitions the QP to the error state: the failing WR completes
// with kUnavailable, every queued send/recv WR is flushed with a kAborted
// completion (in FIFO order, after the failing one), and later posts are
// accepted but immediately flush-completed — never silently dropped.
// Recover() returns an errored QP to service (the simulation's stand-in for
// tearing down and reconnecting the QP).
class QueuePair {
 public:
  QueuePair(NicDevice* nic, uint32_t qp_num, CompletionQueue* send_cq, CompletionQueue* recv_cq)
      : nic_(nic), qp_num_(qp_num), send_cq_(send_cq), recv_cq_(recv_cq) {}

  // One-time connection to a peer QP (done out-of-band, mirroring RDMA CM).
  Status Connect(QueuePair* peer);

  // A WR with a non-empty |sge| list posts as a single scatter/gather WQE:
  // one doorbell, per-extent delivery in list order, one CQE for the whole
  // request (wc.byte_len = summed extent bytes). SG is kWrite-only.
  Status PostSend(const SendWorkRequest& wr);
  // Posts a doorbell-chained batch of RDMA_WRITE WRs: one post overhead and
  // one NIC processing pass for the whole chain (the WQEs are linked and rung
  // with a single doorbell), one wire stream carrying the concatenated
  // payloads in posting order, then one CQE per WR pushed in FIFO order. This
  // is the verbs-level mechanism behind small-tensor coalescing: the
  // per-message CPU overhead of the cost model is paid once per batch.
  // Entries must be kWrite with length > 0. The chain shares fate like a real
  // WQE list: a remote access violation or transport-retry exhaustion fails
  // every WR in the batch.
  Status PostSendBatch(std::vector<SendWorkRequest> wrs);
  Status PostRecv(const RecvWorkRequest& wr);

  // Returns an errored QP to kReady. Call only after the error has been
  // observed and drained (no WR may be in flight).
  Status Recover();

  uint32_t qp_num() const { return qp_num_; }
  bool connected() const { return peer_ != nullptr; }
  QpState state() const { return state_; }
  bool in_error() const { return state_ == QpState::kError; }
  QueuePair* peer() const { return peer_; }
  // The transport failure that moved the QP to kError (OK while kReady).
  const Status& error_cause() const { return error_cause_; }
  NicDevice* nic() const { return nic_; }
  CompletionQueue* send_cq() const { return send_cq_; }
  CompletionQueue* recv_cq() const { return recv_cq_; }

 private:
  friend class NicDevice;

  struct InboundMessage {
    const uint8_t* src = nullptr;
    uint64_t length = 0;
    bool copy_bytes = true;
  };

  // A doorbell-chained WQE list; a single WR is a chain of one.
  using Batch = std::vector<SendWorkRequest>;

  // The tail both post verbs share: flush-complete |chain| on an errored QP,
  // else queue it behind the in-flight list.
  Status Enqueue(Batch chain);
  // Starts the next queued send batch if the engine is idle. The in-flight
  // batch lives in |current_| (guarded by engine_busy_: exactly one per QP),
  // so every hot-path closure below captures only `this` (plus, for the
  // write scatter, one offset) and fits std::function's inline buffer.
  // Posting, executing, retrying and completing a WR therefore allocates
  // nothing per event.
  void MaybeStartNext();
  // Dispatches |current_| by opcode, after the post overhead and again on
  // every transport retry.
  void ExecuteCurrent();
  // The one RDMA_WRITE pipeline, for every WQE shape: a single WR, a
  // doorbell-chained list, or a scatter/gather WR. It validates every extent
  // of every WR before any byte moves, then streams all of them in list
  // order as one wire transfer, scattered back by the cursor members below.
  void ExecuteWrite();
  void ExecuteRead();
  void ExecuteSend();
  // Wire completion for |current_|, shared by every opcode: success finishes
  // it (a SEND first hands its payload to the peer's receive matching), a
  // transport failure retries the whole list with backoff or errors the QP.
  void CompleteWire(const Status& status);
  // Pushes one CQE per WR of |current_|, in FIFO order, after one
  // cq_poll_overhead (the poller picks the list's CQEs up in one pass), then
  // releases the engine.
  void Finish(Status status);
  // RdmaCheck's completion-ordering edge for every write in |current_|.
  void NoteWritesFinished();
  // Extra initiation delay modeling the per-QP WQE-engine throughput ceiling
  // (cost.rdma_qp_engine_bytes_per_sec); 0 when the ceiling is disabled.
  int64_t EngineDelayNs(uint64_t bytes) const;

  // ---- DCQCN reaction point (active only when the fabric's
  // CongestionConfig has dcqcn set; zero-cost otherwise) ----
  // Pacing delay for sending |bytes| at the QP's current rate instead of line
  // rate, advancing the timer/byte-counter recovery stages first. Charged as
  // extra initiation delay on every execute, including retransmissions —
  // which is exactly how a throttled QP spreads an incast burst out.
  int64_t DcqcnDelayNs(uint64_t bytes);
  // Receiver-side NP: a delivered segment carried a CE mark. Moderates per
  // the CNP interval (with capped exponential backoff while the QP already
  // sits at the rate floor) and schedules the CNP one propagation latency
  // later.
  void OnEcnFeedback(int64_t deliver_ns);
  // Sender-side RP: the CNP arrived — multiplicative rate decrease.
  void ApplyCnp();
  // The decrease itself, also invoked (without a CNP) when a transport loss
  // is detected under DCQCN: a RoCE RP treats a timeout like severe
  // congestion, which is what de-synchronizes an incast's retry storms.
  void DcqcnDecrease();
  // Flushes all queued WRs with kAborted completions (the QP is in kError).
  void FlushQueues();
  // Schedules an immediate flush completion for a WR posted while errored.
  void FlushPostedSend(const SendWorkRequest& wr);
  void FlushPostedRecv(const RecvWorkRequest& wr);

  // Target side of a SEND: match against posted receives.
  void DeliverInbound(const uint8_t* src, uint64_t length, bool copy_bytes);
  void MatchInbound();

  NicDevice* nic_;
  uint32_t qp_num_;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  QueuePair* peer_ = nullptr;

  QpState state_ = QpState::kReady;
  Status error_cause_;
  int retry_attempts_ = 0;  // Transport retries consumed by the in-flight WR.

  // DCQCN per-QP rate state. Each striped lane is its own QP and so carries
  // its own rate — the striping×CC interaction the benches measure. Rate
  // updates are applied lazily on execute (no timer events), which keeps the
  // event stream, and thus determinism, independent of wall clock.
  struct Dcqcn {
    bool initialized = false;
    double current_rate = 0.0;  // Bytes/sec the QP may inject at.
    double target_rate = 0.0;   // Recovery ceiling (pre-decrease rate).
    double alpha = 1.0;         // Congestion-extent estimate.
    int64_t last_decrease_ns = -1;  // <0: never decreased, QP is at line rate.
    int64_t last_stage_ns = 0;      // Recovery-timer marker.
    uint64_t bytes_since_stage = 0; // Recovery byte counter.
    int stage = 0;                  // Completed stages since last decrease.
    int64_t last_cnp_ns = -1;       // NP-side moderation marker.
    int cnp_backoff = 0;            // Extra moderation shifts at the floor.
  };
  Dcqcn dcqcn_;
  bool engine_busy_ = false;
  Batch current_;             // In-flight batch; valid while engine_busy_.
  // Write scatter cursor: the first extent of current_ not fully delivered
  // (WR index, extent index within it) and the stream offset it starts at.
  // Reset on every execute, so a retransmission rewrites from offset 0.
  size_t cursor_wr_ = 0;
  size_t cursor_extent_ = 0;
  uint64_t cursor_base_ = 0;
  // Stream bytes delivered by the in-flight write, kept only to feed the
  // check::kRetryKeepsCursor mutation (resume-from-cursor-on-retry bug).
  uint64_t delivered_ = 0;
  Status pending_status_;     // List-wide completion status (cq_poll delay).
  std::deque<Batch> send_queue_;
  std::deque<RecvWorkRequest> recv_queue_;
  std::deque<InboundMessage> inbound_;
};

struct NicStats {
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t sends = 0;
  uint64_t write_bytes = 0;
  uint64_t read_bytes = 0;
  uint64_t send_bytes = 0;
  uint64_t registrations = 0;
  int64_t registration_cost_ns_total = 0;
  uint64_t rkey_violations = 0;
  uint64_t retransmissions = 0;    // Transport-level segment-loss retries.
  uint64_t flushed_wrs = 0;        // WRs flush-completed by an errored QP.
  uint64_t doorbell_batches = 0;   // Multi-WR chains rung with one doorbell.
  uint64_t doorbells = 0;          // Doorbells rung, total: every send-queue
                                   // dispatch (single, chained batch, or SG)
                                   // counts one. The SG-WR payoff metric.
  uint64_t sg_writes = 0;          // Scatter/gather WQEs executed.
  uint64_t sg_extents = 0;         // Extents carried by those WQEs.
  // ---- Congestion control (all zero unless the fabric models congestion) --
  uint64_t ecn_marked_segments = 0;   // Delivered segments of this NIC's
                                      // transfers that carried a CE mark.
  uint64_t cnps_received = 0;         // CNPs that reached this NIC's QPs.
  uint64_t dcqcn_rate_decreases = 0;  // Multiplicative decreases applied.
  uint64_t dcqcn_rate_increases = 0;  // Recovery stages completed.
  int64_t dcqcn_pacing_delay_ns_total = 0;  // Injection delay added by pacing.
};

// One RDMA NIC on one host.
class NicDevice {
 public:
  NicDevice(net::Fabric* fabric, int host_id);
  NicDevice(const NicDevice&) = delete;
  NicDevice& operator=(const NicDevice&) = delete;

  // Registers [addr, addr+length) for RDMA access. Fails with
  // kResourceExhausted once the hardware MR limit is reached. The pinning
  // cost (base + per page) is accounted in stats; callers on the critical
  // path should charge RegistrationCost(length) to their own timeline.
  StatusOr<MemoryRegion> RegisterMemory(void* addr, uint64_t length);
  Status DeregisterMemory(const MemoryRegion& mr);
  int64_t RegistrationCost(uint64_t length) const;

  CompletionQueue* CreateCompletionQueue();
  // CHECK-fails when the NIC's QP context limit (cost.max_queue_pairs) is
  // reached; capacity-aware callers (the QP pool) use TryCreateQueuePair.
  QueuePair* CreateQueuePair(CompletionQueue* send_cq, CompletionQueue* recv_cq);
  StatusOr<QueuePair*> TryCreateQueuePair(CompletionQueue* send_cq, CompletionQueue* recv_cq);
  // Destroys a QP, releasing its NIC context slot. The caller must ensure the
  // QP is idle (no WR queued/in flight, no scheduled event referencing it) —
  // destroying a QP with a write in flight raises a kQpDestroyedInFlight
  // diagnostic under RdmaCheck. The peer end, if still connected to this QP,
  // is disconnected (its posts fail with FailedPrecondition afterwards).
  Status DestroyQueuePair(QueuePair* qp);

  // Looks up the MR covering [addr, addr+len) with the given remote key.
  const MemoryRegion* FindRemoteRegion(uint32_t rkey, uint64_t addr, uint64_t len) const;
  const MemoryRegion* FindLocalRegion(uint32_t lkey, uint64_t addr, uint64_t len) const;

  int host_id() const { return host_id_; }
  net::Fabric* fabric() const { return fabric_; }
  sim::Simulator* simulator() const { return fabric_->simulator(); }
  const net::CostModel& cost() const { return fabric_->cost(); }
  const NicStats& stats() const { return stats_; }
  int num_registered_regions() const { return static_cast<int>(mrs_by_rkey_.size()); }
  int num_queue_pairs() const { return static_cast<int>(qps_.size()); }

 private:
  friend class QueuePair;

  net::Fabric* fabric_;
  int host_id_;
  uint32_t next_key_ = 1;
  uint32_t next_qp_num_ = 1;
  NicStats stats_;
  std::unordered_map<uint32_t, MemoryRegion> mrs_by_rkey_;
  std::unordered_map<uint32_t, MemoryRegion> mrs_by_lkey_;
  std::vector<std::unique_ptr<CompletionQueue>> cqs_;
  std::vector<std::unique_ptr<QueuePair>> qps_;
};

// Owns one NicDevice per host of the underlying fabric.
class RdmaFabric {
 public:
  explicit RdmaFabric(net::Fabric* fabric);

  NicDevice* nic(int host_id) {
    CHECK_GE(host_id, 0);
    CHECK_LT(host_id, static_cast<int>(nics_.size()));
    return nics_[host_id].get();
  }
  net::Fabric* fabric() const { return fabric_; }

 private:
  net::Fabric* fabric_;
  std::vector<std::unique_ptr<NicDevice>> nics_;
};

}  // namespace rdma
}  // namespace rdmadl

#endif  // RDMADL_SRC_RDMA_VERBS_H_

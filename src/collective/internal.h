// Private state of CollectiveGroup, shared by the algorithm translation units
// (collective_group.cc, ring_allreduce.cc, hierarchical_allreduce.cc,
// innetwork_allreduce.cc, naive_allreduce.cc). Not part of the public API.
#ifndef RDMADL_SRC_COLLECTIVE_INTERNAL_H_
#define RDMADL_SRC_COLLECTIVE_INTERNAL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/collective/collective.h"
#include "src/comm/transfer_engine.h"
#include "src/device/rdma_device.h"
#include "src/sim/simulator.h"

namespace rdmadl {
namespace collective {

inline uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

// A contiguous element range.
struct ChunkRange {
  uint64_t offset = 0;
  uint64_t count = 0;
};

// Piece |i| of the near-equal split of |count| elements into |parts|: every
// piece gets count/parts elements and the first count%parts one more. The
// one split behind pipeline lanes and ring chunks.
inline ChunkRange SplitRange(uint64_t count, uint64_t parts, uint64_t i) {
  const uint64_t base = count / parts;
  const uint64_t rem = count % parts;
  return ChunkRange{i * base + std::min(i, rem), base + (i < rem ? 1 : 0)};
}

// Per-rank resources, all set up once at group creation (§3.2 static
// placement: nothing on the collective critical path ever allocates or
// registers memory).
//
// Buffer layout per rank (addresses are real pointers when materialized,
// reserved never-dereferenced ranges otherwise):
//   data   max_elements floats — the user's vector; all-gather writes land
//          directly at their final offsets in here.
//   slots  ring: lanes x (N-1) x chunk_cap slots — reduce-scatter step s of
//          lane l lands in slot (l, s), so a sender running ahead can never
//          overwrite a slot its successor has not consumed.
//          hierarchical: then one full-lane tree slot per (lane, round) and
//          the leader ring's (lane, step) slots.
//          naive: root only, N-1 x max_elements gather parking.
//   flags  ALWAYS real memory (the poller reads actual bytes): one byte per
//          expected arrival, written exactly once per op by the flag write
//          that trails its payload on the same QP, plus one constant source
//          byte (=1) at index |flag_capacity| that every flag write reads.
struct CollectiveGroup::Rank {
  int index = 0;
  Endpoint endpoint;
  std::unique_ptr<device::RdmaDevice> device;
  // Shared transfer engine (lane striping for big chunks; coalescing forced
  // off for collectives). Declared after |device|: it is torn down first.
  std::unique_ptr<comm::TransferEngine> engine;

  // Data buffer and ring / tree / gather slots. In virtual mode both are
  // registered ranges of the rank's window that own no storage (data() is
  // null).
  device::MemRegion data_region;
  device::MemRegion slot_region;

  // Flag block: flag_capacity bytes + 1 source byte.
  device::MemRegion flag_region;

  // What this rank knows about its peers after address distribution;
  // indexed by rank (the self entry is filled locally).
  struct PeerAddrs {
    device::RemoteRegion data;
    device::RemoteRegion slots;
    device::RemoteRegion flags;
  };
  std::vector<PeerAddrs> peers;

  float* data_ptr() const { return reinterpret_cast<float*>(data_region.data()); }
  uint8_t* slot_ptr() const { return slot_region.data(); }
  uint8_t* flags() const { return flag_region.data(); }

  // The reduce step every schedule shares: adds |count| floats from the slot
  // area at byte |slot_off| into the data vector at element |data_off|.
  // Virtual ranks hold no bytes, so this is a no-op for them.
  void FoldSlot(uint64_t slot_off, uint64_t data_off, uint64_t count) {
    if (data_ptr() == nullptr || count == 0) return;
    const float* src = reinterpret_cast<const float*>(slot_ptr() + slot_off);
    float* dst = data_ptr() + data_off;
    for (uint64_t i = 0; i < count; ++i) dst[i] += src[i];
  }
};

// One in-flight collective. Closures capture the op by shared_ptr so a
// completion that races with teardown (e.g. after a failure finished the op
// early) finds |finished| set and backs off instead of touching freed state.
struct CollectiveGroup::Op {
  uint64_t count = 0;  // Elements.
  DoneCallback done;
  int64_t start_ns = 0;
  // Absolute virtual-time budget (0 = none). Begin arms a backstop timer at
  // this instant; the multi-level schedules additionally recheck it at every
  // level handoff (tree -> spine ring -> broadcast, in-network round issue)
  // so a blown budget fails with a message naming the level instead of the
  // generic timer text.
  int64_t deadline_ns = 0;

  bool finished = false;
  Status status;  // First failure, if any.

  // Completion accounting: the op finishes when every unit (one per
  // rank x lane for the ring, one per involved rank otherwise) is done.
  int pending_units = 0;

  // Lane partition of [0, count): SplitRange(count, lanes.size(), l).
  std::vector<ChunkRange> lanes;

  // Naive gather: virtual time at which the root's reduce core frees up
  // (arrivals reduce serially on one core).
  int64_t root_cpu_free_ns = 0;
  int naive_reduced = 0;

  // Flags declared to the protocol checker for this op, as (rank, index)
  // pairs; Finish/Fail forget them so the shadow state never outlives the op.
  std::vector<std::pair<int, int>> declared_flags;

  // In-network staging ("switch SRAM" shadow, materialize mode only):
  // [lane][rack partial 0..R-1, global R][window] floats.
  std::vector<float> innet_buf;
};

// One pipeline lane of the ring schedule at one member; the schedule is
// described in ring_allreduce.cc. Step k (the n-1 reduce-scatter steps, then
// the n-1 all-gather steps) lands on flag flag_base + k at the successor.
struct CollectiveGroup::RingLane {
  const std::vector<int>* members = nullptr;  // Ring order; group-owned.
  int pos = 0;                  // This rank's index in |members|.
  int lane = 0;                 // Pipeline lane: index into Op::lanes, QP lane.
  // Reduce-scatter slot (lane, s) sits slot_offset bytes plus
  // (lane * (n-1) + s) * slot_cap_elements floats into a member's slots.
  uint64_t slot_offset = 0;
  uint64_t slot_cap_elements = 0;
  int flag_base = 0;
  bool phase_spans = true;  // Trace "rs l"/"ag l" at the end of each phase.
  // Runs after the lane's last arrival is handled (may be empty).
  std::function<void()> on_done;

  // Set by RunRingLane.
  int n = 0;
  int rank = 0;
  int succ = 0;
  int64_t phase_start = 0;

  uint64_t slot_byte_offset(int s) const {
    return slot_offset +
           (static_cast<uint64_t>(lane) * (n - 1) + s) * slot_cap_elements * sizeof(float);
  }
};

// A sequential flag poller: one per (rank, lane) for the ring, one per
// expected arrival group otherwise. Reads its flag bytes in index order with
// check::PollFlag at its sim::Poller ticks; a miss re-keys the tick after
// PollDelay() and costs no event, and a miss at the backoff cap repeats
// (the simulator replays it and calls Skipped). An armed tick keeps its
// waiter alive.
struct CollectiveGroup::Waiter final : sim::Poller, std::enable_shared_from_this<Waiter> {
  CollectiveGroup* group = nullptr;
  std::shared_ptr<Op> op;
  int rank = 0;
  int flag_base = 0;
  int num_flags = 0;
  // handler(index, resume): performs the arrival's work (reduce, forward) and
  // calls resume() when the poller may advance to the next flag.
  std::function<void(int, std::function<void()>)> on_arrival;

  int next = 0;    // Next expected flag, relative to |flag_base|.
  int misses = 0;  // Polls of |next| that found it unset, in a row.

  // Delay to the next poll (§4 polling-async): flag_poll_cost_ns, plus
  // net::IdlePollBackoffNs(k - 1) after k misses in a row.
  int64_t PollDelay() const;
  Result Tick(uint64_t tag) override;
  void Skipped(uint64_t tag, uint64_t n) override;
};

}  // namespace collective
}  // namespace rdmadl

#endif  // RDMADL_SRC_COLLECTIVE_INTERNAL_H_

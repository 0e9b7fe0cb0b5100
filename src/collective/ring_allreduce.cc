// Ring all-reduce: a reduce-scatter fused with an all-gather.
//
// The flat ring is the rank order 0..N-1 (rank r sends only to (r+1) % N).
// Each pipeline lane runs the schedule independently over its own slice of
// the vector; a lane's all-gather begins the moment its reduce-scatter
// finishes, so later lanes' reduce traffic overlaps earlier lanes' gather
// traffic. One lane at one member is RunRingLane, and it is the only ring
// code: StartRing runs it at every rank over the rank order, and the
// hierarchical schedule's level 2 runs it at each rack leader over the
// leader list (N = racks, r = rack ordinal).
//
//   reduce-scatter step s:  rank r sends lane-chunk (r - s) mod N into its
//     successor's per-step slot (lane, s); on the arrival of step s it
//     reduces slot (lane, s) into lane-chunk (r - s - 1) mod N. After N-1
//     steps rank r owns lane-chunk (r + 1) mod N.
//   all-gather step t: rank r sends lane-chunk (owner - t) mod N, where
//     owner = (r + 1) mod N, directly into its successor's data buffer at
//     the chunk's final offset — no landing slot and no receiver copy; on
//     arrival t it may immediately forward that chunk (step t+1).
//
// Per-step slots make the schedule self-throttling-free: a sender running
// ahead can never overwrite a slot its successor has not consumed, and the
// all-gather's in-place writes cannot race the receiver's reads because the
// write that lands chunk c is causally downstream of every read of c (the
// dependency chain runs once around the ring).
#include <memory>
#include <utility>

#include "src/collective/internal.h"
#include "src/sim/trace.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace collective {

namespace {

int Mod(int a, int n) { return (a % n + n) % n; }

}  // namespace

void CollectiveGroup::StartRing(const std::shared_ptr<Op>& op) {
  const int n = size();
  CHECK_GT(n, 1);
  if (!StartLanes(op, options_.pipeline_depth, /*units_per_lane=*/n)) return;

  for (int r = 0; r < n; ++r) {
    for (int l = 0; l < static_cast<int>(op->lanes.size()); ++l) {
      if (op->lanes[l].count == 0) continue;
      RingLane lane;
      lane.members = &rank_order_;
      lane.pos = r;
      lane.lane = l;
      lane.slot_cap_elements = chunk_cap_elements_;
      lane.flag_base = l * 2 * (n - 1);
      RunRingLane(op, std::move(lane));
    }
  }
}

void CollectiveGroup::RunRingLane(const std::shared_ptr<Op>& op, RingLane spec) {
  auto lane = std::make_shared<RingLane>(std::move(spec));
  lane->n = static_cast<int>(lane->members->size());
  lane->rank = (*lane->members)[lane->pos];
  lane->succ = (*lane->members)[(lane->pos + 1) % lane->n];
  lane->phase_start = simulator()->Now();

  RingLaneStep(op, *lane, 0);
  const int phase_steps = lane->n - 1;
  StartWaiter(
      op, lane->rank, lane->flag_base, 2 * phase_steps,
      [this, op, lane, phase_steps](int index, std::function<void()> resume) {
        const ChunkRange& range = op->lanes[lane->lane];
        if (index < phase_steps) {
          // Reduce-scatter arrival s: fold slot (lane, s) into the chunk it
          // carries, then (causally after the reduce) send the next step.
          const ChunkRange chunk =
              SplitRange(range.count, lane->n, Mod(lane->pos - index - 1, lane->n));
          simulator()->ScheduleAfter(
              ReduceNs(chunk.count * sizeof(float)),
              [this, op, lane, index, chunk, phase_steps, resume = std::move(resume)] {
                if (op->finished) return;
                const ChunkRange& range = op->lanes[lane->lane];
                ranks_[lane->rank]->FoldSlot(lane->slot_byte_offset(index),
                                             range.offset + chunk.offset, chunk.count);
                if (index + 1 == phase_steps && lane->phase_spans) {
                  sim::TraceSpan(RankTrack(lane->rank),
                                 StrCat("rs l", lane->lane, " ", range.count, "e"),
                                 lane->phase_start, simulator()->Now());
                  lane->phase_start = simulator()->Now();
                }
                RingLaneStep(op, *lane, index + 1);
                resume();
              });
          return;
        }
        // All-gather arrival t: the chunk already sits at its final offset;
        // forward it, or after the last step run the lane's finish step.
        if (index + 1 == 2 * phase_steps && lane->phase_spans) {
          sim::TraceSpan(RankTrack(lane->rank), StrCat("ag l", lane->lane, " ", range.count, "e"),
                         lane->phase_start, simulator()->Now());
        }
        RingLaneStep(op, *lane, index + 1);
        resume();
      });
}

void CollectiveGroup::RingLaneStep(const std::shared_ptr<Op>& op, const RingLane& lane,
                                   int step) {
  const int phase_steps = lane.n - 1;
  if (step == 2 * phase_steps) {
    if (lane.on_done) lane.on_done();
    return;
  }
  const ChunkRange& range = op->lanes[lane.lane];
  Rank* self = ranks_[lane.rank].get();
  const Rank::PeerAddrs& peer = self->peers[lane.succ];
  if (step < phase_steps) {
    // Reduce-scatter step s: into the successor's slot (lane, s).
    const ChunkRange chunk = SplitRange(range.count, lane.n, Mod(lane.pos - step, lane.n));
    PostChunk(op, lane.rank, lane.succ, lane.lane,
              self->data_addr + (range.offset + chunk.offset) * sizeof(float), self->data_lkey,
              peer.slots.addr + lane.slot_byte_offset(step), peer.slots.rkey,
              chunk.count * sizeof(float), lane.flag_base + step);
    return;
  }
  // All-gather step t: straight to the chunk's final offset in the
  // successor's data buffer.
  const int owner = (lane.pos + 1) % lane.n;
  const ChunkRange chunk =
      SplitRange(range.count, lane.n, Mod(owner - (step - phase_steps), lane.n));
  const uint64_t byte_off = (range.offset + chunk.offset) * sizeof(float);
  PostChunk(op, lane.rank, lane.succ, lane.lane, self->data_addr + byte_off, self->data_lkey,
            peer.data.addr + byte_off, peer.data.rkey, chunk.count * sizeof(float),
            lane.flag_base + step);
}

}  // namespace collective
}  // namespace rdmadl

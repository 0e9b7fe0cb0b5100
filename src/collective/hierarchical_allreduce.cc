// Topology-aware two-level all-reduce (ISSUE 7).
//
// Level 1 — intra-rack binomial reduce tree. Within each rack, member
// positions 0..m-1 (0 = leader) run a binomial reduce over the whole lane
// slice: position p sends its accumulated slice to parent p - 2^ctz(p) once
// it has folded in its own children, which arrive as consecutive receive
// rounds j = 0..RecvRounds(p)-1 (round j comes from p + 2^j). Every message
// stays inside the rack, so the oversubscribed uplink sees none of this
// traffic.
//
// Level 2 — inter-rack ring over the rack leaders. Each leader runs the flat
// ring's lane routine (RunRingLane) over the leader list, with its own slot
// area and flags, on the rack-reduced slice; only these messages cross the
// spine, and the multi-level engine routing caps their stripe fan-out to one
// QP lane (they all funnel through the same uplink).
//
// Level 3 — intra-rack binomial broadcast, the mirror of level 1: the leader
// pushes the globally reduced slice down the tree (child q receives from
// q - 2^ctz(q) and forwards to q + 2^j for j < ctz(q)).
//
// Pipelined handoff: each lane hands off independently. Lane l's leader ring
// starts the moment lane l's local tree finishes, so early lanes' spine
// traffic overlaps late lanes' tree reduction, and likewise ring completion
// flows straight into that lane's broadcast. The op's deadline is re-checked
// at both handoffs (CheckDeadline) so a blown budget names the level.
//
// §3.2 contract everywhere: every payload lands via PostChunk (payload then
// trailing flag on the same QP / striped-with-fenced-flag path), receivers
// are sequential flag pollers, and slots are written exactly once per op —
// tree slot (lane, round) and ring slot (lane, step) each have a single
// writer, and the broadcast's in-place data writes are causally downstream
// of every read of the same range (the chain runs through the leader).
#include <memory>
#include <utility>

#include "src/collective/internal.h"
#include "src/sim/trace.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace collective {

namespace {

int Ctz(int p) {
  int j = 0;
  while (((p >> j) & 1) == 0) ++j;
  return j;
}

// Number of tree receive rounds of position |p| in an m-member rack: the
// consecutive rounds j with p % 2^(j+1) == 0 and a live child p + 2^j < m.
int RecvRounds(int p, int m) {
  int t = 0;
  while (p % (1 << (t + 1)) == 0 && p + (1 << t) < m) ++t;
  return t;
}

}  // namespace

void CollectiveGroup::StartHierarchical(const std::shared_ptr<Op>& op) {
  const int n = size();
  CHECK_GT(n, 1);
  const int lanes = options_.pipeline_depth;
  const int R = static_cast<int>(racks_.size());
  // Two units per (rank, lane): the tree waiter, and the per-rank tail (ring
  // waiter for leaders with R > 1, broadcast waiter for non-leaders, explicit
  // finish for a single-rack leader).
  if (!StartLanes(op, lanes, /*units_per_lane=*/2 * n)) return;

  const int ring_steps = R > 1 ? 2 * (R - 1) : 0;
  const int bcast_flag = tree_rounds_ + ring_steps;

  // Declare every flag this schedule will poll before anything is posted, so
  // the checker can flag a read that races its covering write.
  for (int r = 0; r < n; ++r) {
    const int p = rank_pos_[r];
    const int m = static_cast<int>(racks_[rank_rack_[r]].size());
    for (int l = 0; l < lanes; ++l) {
      if (op->lanes[l].count == 0) continue;
      const int fb = l * hier_flags_per_lane_;
      for (int j = 0; j < RecvRounds(p, m); ++j) DeclareFlag(op, r, fb + j, "tree");
      if (p == 0) {
        for (int s = 0; s < ring_steps; ++s) DeclareFlag(op, r, fb + tree_rounds_ + s, "ring");
      } else {
        DeclareFlag(op, r, fb + bcast_flag, "bcast");
      }
    }
  }

  for (int r = 0; r < n; ++r) {
    const int rk = rank_rack_[r];
    const int p = rank_pos_[r];
    const std::vector<int>* members = &racks_[rk];
    const int m = static_cast<int>(members->size());
    const int recv_rounds = RecvRounds(p, m);

    for (int l = 0; l < lanes; ++l) {
      const ChunkRange range = op->lanes[l];
      if (range.count == 0) continue;
      const int fb = l * hier_flags_per_lane_;
      const uint64_t lane_bytes = range.count * sizeof(float);
      auto phase_start = std::make_shared<int64_t>(simulator()->Now());

      // Level-3 broadcast push: sends the (now final) lane slice to the
      // binomial descendants of position |pos|, deepest subtree first.
      auto post_bcast = [this, op, r, l, m, range, lane_bytes, fb, bcast_flag, members](
                            int pos, int max_j) {
        Rank* self = ranks_[r].get();
        for (int j = max_j; j >= 0; --j) {
          const int child = pos + (1 << j);
          if (child >= m) continue;
          const int child_rank = (*members)[child];
          const Rank::PeerAddrs& peer = self->peers[child_rank];
          const uint64_t byte_off = range.offset * sizeof(float);
          PostChunk(op, r, child_rank, l, self->data_addr + byte_off, self->data_lkey,
                    peer.data.addr + byte_off, peer.data.rkey, lane_bytes, fb + bcast_flag);
        }
      };
      // A leader's level-2 -> level-3 handoff.
      auto start_bcast = [this, op, m, post_bcast] {
        if (!CheckDeadline(op, "spine ring -> intra-rack broadcast handoff")) return;
        if (m > 1) post_bcast(0, tree_rounds_ - 1);
      };

      // Fires when lane |l|'s rack-local tree is fully folded at this rank:
      // non-leaders push up, leaders hand off to the spine ring (or straight
      // to the broadcast when there is only one rack).
      auto after_tree = [this, op, r, l, p, rk, R, range, lane_bytes, fb, phase_start, members,
                         start_bcast]() {
        if (op->finished) return;
        sim::TraceSpan(RankTrack(r), StrCat("h-tree l", l, " ", range.count, "e"), *phase_start,
                       simulator()->Now());
        *phase_start = simulator()->Now();
        if (p != 0) {
          // Push the rack-partial slice to the tree parent.
          const int parent_rank = (*members)[p - (1 << Ctz(p))];
          Rank* self = ranks_[r].get();
          const Rank::PeerAddrs& peer = self->peers[parent_rank];
          const uint64_t slot_off =
              hier_tree_slot_offset_ +
              (static_cast<uint64_t>(l) * tree_rounds_ + Ctz(p)) * lane_cap_elements_ *
                  sizeof(float);
          PostChunk(op, r, parent_rank, l, self->data_addr + range.offset * sizeof(float),
                    self->data_lkey, peer.slots.addr + slot_off, peer.slots.rkey, lane_bytes,
                    fb + Ctz(p));
          return;
        }
        if (!CheckDeadline(op, "intra-rack tree -> spine ring handoff")) return;
        if (R > 1) {
          // Level 2 is the flat ring's lane, run over the rack leaders. Its
          // first send carries rack-reduced data, and its waiter starts only
          // now — a predecessor's early arrival must not be folded into a
          // slice still accumulating tree contributions.
          RingLane ring;
          ring.members = &leaders_;
          ring.pos = rk;
          ring.lane = l;
          ring.slot_offset = hier_ring_slot_offset_;
          ring.slot_cap_elements = hier_ring_cap_elements_;
          ring.flag_base = fb + tree_rounds_;
          ring.phase_spans = false;  // One h-ring span from tree end to ring end.
          ring.on_done = [this, r, l, range, phase_start, start_bcast] {
            sim::TraceSpan(RankTrack(r), StrCat("h-ring l", l, " ", range.count, "e"),
                           *phase_start, simulator()->Now());
            start_bcast();
          };
          RunRingLane(op, std::move(ring));
          return;
        }
        // Single rack: the tree result already is the global sum.
        start_bcast();
        FinishUnit(op);
      };

      // Level-1 tree waiter (every rank): fold children as they arrive, then
      // run the handoff. Leaves have no receive rounds and hand off at once.
      if (recv_rounds == 0) {
        after_tree();
        StartWaiter(op, r, fb, 0, nullptr);
      } else {
        StartWaiter(
            op, r, fb, recv_rounds,
            [this, op, r, l, range, lane_bytes, recv_rounds, after_tree](
                int j, std::function<void()> resume) {
              simulator()->ScheduleAfter(
                  ReduceNs(lane_bytes), [this, op, r, l, j, range, recv_rounds, after_tree,
                                         resume = std::move(resume)] {
                    if (op->finished) return;
                    ranks_[r]->FoldSlot(
                        hier_tree_slot_offset_ + (static_cast<uint64_t>(l) * tree_rounds_ + j) *
                                                     lane_cap_elements_ * sizeof(float),
                        range.offset, range.count);
                    if (j + 1 == recv_rounds) after_tree();
                    resume();
                  });
            });
      }

      // Per-rank tail unit: non-leaders wait for the broadcast push (started
      // now — the flag may land long before the poller's first look, which is
      // exactly the §3.2 pattern). Leaders' tail is the ring waiter (R > 1,
      // started at tree-done) or the explicit finish above (R == 1).
      if (p != 0) {
        StartWaiter(op, r, fb + bcast_flag, 1,
                    [p, post_bcast](int, std::function<void()> resume) {
                      // Forward the final slice down this position's subtree.
                      if (Ctz(p) > 0) post_bcast(p, Ctz(p) - 1);
                      resume();
                    });
      }
    }
  }
}

}  // namespace collective
}  // namespace rdmadl

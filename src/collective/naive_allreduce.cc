// Naive gather-to-root all-reduce: the star-shaped pattern a parameter
// server induces, kept as an ablation baseline against the ring. Every
// non-root rank writes its full vector into a per-peer parking slot at rank
// 0; the root reduces the arrivals serially on one core, then writes the
// result back into every peer's data buffer. The root's ingress link and
// reduce core are the bottleneck — 2(N-1) full-vector transfers cross them,
// versus the ring's 2(N-1)/N per link.
#include <algorithm>
#include <memory>
#include <utility>

#include "src/collective/internal.h"
#include "src/sim/trace.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace collective {

void CollectiveGroup::StartNaiveGather(const std::shared_ptr<Op>& op) {
  const int n = size();
  CHECK_GT(n, 1);
  const uint64_t bytes = op->count * sizeof(float);
  // One unit per gather arrival at the root plus one per peer's result
  // arrival.
  op->pending_units = 2 * (n - 1);
  op->root_cpu_free_ns = simulator()->Now();

  // Peers push their full vector into their parking slot at the root.
  for (int k = 1; k < n; ++k) {
    Rank* peer = ranks_[k].get();
    const Rank::PeerAddrs& root_addrs = peer->peers[0];
    const uint64_t park =
        naive_slot_offset_ + static_cast<uint64_t>(k - 1) * max_elements_ * sizeof(float);
    PostChunk(op, k, /*dst_rank=*/0, /*qp_lane=*/k - 1, peer->data_region.addr(),
              peer->data_region.lkey(), root_addrs.slots.addr + park, root_addrs.slots.rkey,
              bytes, /*flag_index=*/k - 1);
  }

  // The root watches one flag per peer; arrivals reduce serially on the
  // root's reduce core (whoever lands first goes first, later arrivals queue
  // behind it).
  for (int k = 1; k < n; ++k) {
    StartWaiter(op, /*rank=*/0, /*flag_base=*/k - 1, /*num_flags=*/1,
                [this, op, k, n, bytes](int, std::function<void()> resume) {
                  const int64_t begin =
                      std::max(simulator()->Now(), op->root_cpu_free_ns);
                  const int64_t end = begin + ReduceNs(bytes);
                  op->root_cpu_free_ns = end;
                  simulator()->ScheduleAt(end, [this, op, k, n, bytes, begin,
                                                resume = std::move(resume)] {
                    if (op->finished) return;
                    Rank* root = ranks_[0].get();
                    root->FoldSlot(naive_slot_offset_ + static_cast<uint64_t>(k - 1) *
                                                            max_elements_ * sizeof(float),
                                   0, op->count);
                    sim::TraceSpan(RankTrack(0), begin, simulator()->Now(), "reduce r", k);
                    if (++op->naive_reduced == n - 1) {
                      // Result is final: scatter it back to every peer.
                      for (int j = 1; j < n; ++j) {
                        const Rank::PeerAddrs& peer = root->peers[j];
                        PostChunk(op, /*src_rank=*/0, j, /*qp_lane=*/j - 1,
                                  root->data_region.addr(), root->data_region.lkey(),
                                  peer.data.addr, peer.data.rkey, bytes, /*flag_index=*/0);
                      }
                    }
                    resume();
                  });
                });
  }

  // Each peer waits for the result write (flag 0 in its own block).
  for (int k = 1; k < n; ++k) {
    StartWaiter(op, k, /*flag_base=*/0, /*num_flags=*/1,
                [](int, std::function<void()> resume) { resume(); });
  }
}

}  // namespace collective
}  // namespace rdmadl

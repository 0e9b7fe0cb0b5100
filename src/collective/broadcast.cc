// Pipelined chained broadcast (initial weight distribution): ranks form the
// chain root, root+1, ..., root-1; the root chops the vector into segments
// and streams them to its successor, and every intermediate rank forwards
// segment j to its own successor the moment j lands — so all N-1 hops
// transmit concurrently once the pipe fills, and the total time approaches
// one vector transfer plus (hops x segment) fill latency. Segments land
// directly at their final offsets in each receiver's data buffer.
#include <algorithm>
#include <memory>
#include <utility>

#include "src/collective/internal.h"
#include "src/sim/trace.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace collective {

void CollectiveGroup::StartBroadcast(const std::shared_ptr<Op>& op) {
  const int n = size();
  CHECK_GT(n, 1);
  const int root = op->root;
  const int segments =
      static_cast<int>(std::min<uint64_t>(kBroadcastSegments, op->count));
  op->pending_units = n - 1;

  auto forward = [this, op, segments](int from, int j) {
    const int to = (from + 1) % size();
    const ChunkRange segment = SplitRange(op->count, segments, j);
    Rank* self = ranks_[from].get();
    const Rank::PeerAddrs& peer = self->peers[to];
    const uint64_t byte_off = segment.offset * sizeof(float);
    PostChunk(op, from, to, /*qp_lane=*/0, self->data_addr + byte_off, self->data_lkey,
              peer.data.addr + byte_off, peer.data.rkey, segment.count * sizeof(float),
              /*flag_index=*/j);
  };

  // The root streams every segment to its successor; the QP serializes them
  // in order, which matches the receivers' sequential pollers.
  for (int j = 0; j < segments; ++j) forward(root, j);

  // Every other rank forwards each segment on arrival, except the last hop.
  for (int hop = 1; hop < n; ++hop) {
    const int r = (root + hop) % n;
    const bool last_hop = hop == n - 1;
    const int64_t start_ns = simulator()->Now();
    StartWaiter(op, r, /*flag_base=*/0, segments,
                [this, op, r, last_hop, segments, forward, start_ns](
                    int j, std::function<void()> resume) {
                  if (!last_hop) forward(r, j);
                  if (j + 1 == segments) {
                    sim::TraceSpan(RankTrack(r), StrCat("bcast ", op->count, "e"), start_ns,
                                   simulator()->Now());
                  }
                  resume();
                });
  }
}

}  // namespace collective
}  // namespace rdmadl

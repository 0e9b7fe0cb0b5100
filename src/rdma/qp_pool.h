// QpPool: on-demand, create-once shared queue-pair lanes.
//
// Eagerly creating num_qps_per_peer QPs for every connected peer pair costs
// O(n²) QP contexts across the cluster. The pool creates a lane (a connected
// QP pair between two endpoints, indexed by stripe) the first time someone
// asks for it, and the lane lives until one of its endpoints unregisters.
// The paper gives every connection a fixed set of QPs (§3.1), so lanes are
// never evicted: at the NIC's QP cap (cost.max_queue_pairs) Acquire fails
// with kResourceExhausted.
#ifndef RDMADL_SRC_RDMA_QP_POOL_H_
#define RDMADL_SRC_RDMA_QP_POOL_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/rdma/verbs.h"
#include "src/util/endpoint.h"
#include "src/util/status.h"

namespace rdmadl {
namespace rdma {

struct QpPoolStats {
  uint64_t hits = 0;       // Acquire found a live lane.
  uint64_t creates = 0;    // Lane created.
  // Lanes destroyed to free NIC QP contexts. The pool never evicts, so this
  // is always 0; it stays because the scale bench and perfbench report it.
  uint64_t evictions = 0;
};

class QpPool {
 public:
  // Hands out a CQ for each newly created QP on that endpoint (the device's
  // round-robin NextCq).
  using CqProvider = std::function<CompletionQueue*()>;
  // Notifies an endpoint that its lane |lane| toward |remote| is being torn
  // down, so it can drop cached channel->QP bindings. Runs synchronously
  // inside UnregisterEndpoint, before the QPs are destroyed.
  using TeardownObserver =
      std::function<void(const Endpoint& local, const Endpoint& remote, int lane)>;

  explicit QpPool(RdmaFabric* rdma) : rdma_(rdma) {}

  QpPool(const QpPool&) = delete;
  QpPool& operator=(const QpPool&) = delete;

  // Endpoints must register before lanes touching them can be acquired.
  Status RegisterEndpoint(const Endpoint& ep, int host_id, CqProvider cqs,
                          TeardownObserver on_teardown);
  // Destroys every lane touching |ep| (the owner is going away), notifying
  // both ends, and forgets the registration. Safe to call for an unknown
  // endpoint.
  void UnregisterEndpoint(const Endpoint& ep);

  // Returns |local|'s end of lane |lane| between |local| and |remote|,
  // creating and connecting the QP pair on first use. Fails with
  // kResourceExhausted when either NIC is at its QP cap (no QP is left behind)
  // and kFailedPrecondition for unregistered endpoints.
  StatusOr<QueuePair*> Acquire(const Endpoint& local, const Endpoint& remote, int lane);

  const QpPoolStats& stats() const { return stats_; }
  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  bool registered(const Endpoint& ep) const { return endpoints_.count(ep) > 0; }

 private:
  // Lanes are keyed by the unordered endpoint pair (stored ordered) plus the
  // stripe index; both directions of a transfer share one lane.
  struct LaneKey {
    Endpoint lo;
    Endpoint hi;
    int lane = 0;
    bool operator<(const LaneKey& o) const {
      if (lo != o.lo) return lo < o.lo;
      if (hi != o.hi) return hi < o.hi;
      return lane < o.lane;
    }
  };
  struct Lane {
    QueuePair* lo_qp = nullptr;  // End owned by lo's NIC.
    QueuePair* hi_qp = nullptr;
  };
  struct EndpointState {
    int host_id = -1;
    CqProvider cqs;
    TeardownObserver on_teardown;
  };

  // Notifies observers and destroys both QPs of a lane (map entry untouched).
  void TearDownLane(const LaneKey& key, const Lane& lane);

  RdmaFabric* rdma_;
  std::map<Endpoint, EndpointState> endpoints_;
  std::map<LaneKey, Lane> lanes_;  // Ordered: deterministic teardown order.
  QpPoolStats stats_;
};

}  // namespace rdma
}  // namespace rdmadl

#endif  // RDMADL_SRC_RDMA_QP_POOL_H_

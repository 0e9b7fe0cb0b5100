#include "src/rdma/qp_pool.h"

#include <algorithm>
#include <utility>

#include "src/util/strings.h"

namespace rdmadl {
namespace rdma {

Status QpPool::RegisterEndpoint(const Endpoint& ep, int host_id, CqProvider cqs,
                                TeardownObserver on_teardown) {
  if (cqs == nullptr) return InvalidArgument("CQ provider required");
  if (endpoints_.count(ep) > 0) {
    return FailedPrecondition(StrCat("endpoint ", ep.ToString(), " already registered"));
  }
  endpoints_[ep] = EndpointState{host_id, std::move(cqs), std::move(on_teardown)};
  return OkStatus();
}

void QpPool::UnregisterEndpoint(const Endpoint& ep) {
  for (auto it = lanes_.begin(); it != lanes_.end();) {
    if (it->first.lo == ep || it->first.hi == ep) {
      TearDownLane(it->first, it->second);
      it = lanes_.erase(it);
    } else {
      ++it;
    }
  }
  endpoints_.erase(ep);
}

StatusOr<QueuePair*> QpPool::Acquire(const Endpoint& local, const Endpoint& remote,
                                     int lane) {
  if (local == remote) return InvalidArgument("lane endpoints must differ");
  if (lane < 0) return InvalidArgument("negative lane index");
  LaneKey key;
  key.lo = std::min(local, remote);
  key.hi = std::max(local, remote);
  key.lane = lane;

  auto it = lanes_.find(key);
  if (it != lanes_.end()) {
    ++stats_.hits;
    return local == key.lo ? it->second.lo_qp : it->second.hi_qp;
  }

  auto lo_state = endpoints_.find(key.lo);
  auto hi_state = endpoints_.find(key.hi);
  if (lo_state == endpoints_.end() || hi_state == endpoints_.end()) {
    return FailedPrecondition(
        StrCat("lane endpoints not registered with the pool: ",
               (lo_state == endpoints_.end() ? key.lo : key.hi).ToString()));
  }

  NicDevice* lo_nic = rdma_->nic(lo_state->second.host_id);
  NicDevice* hi_nic = rdma_->nic(hi_state->second.host_id);
  StatusOr<QueuePair*> lo_qp = [&]() -> StatusOr<QueuePair*> {
    CompletionQueue* cq = lo_state->second.cqs();
    return lo_nic->TryCreateQueuePair(cq, cq);
  }();
  if (!lo_qp.ok()) return lo_qp.status();
  StatusOr<QueuePair*> hi_qp = [&]() -> StatusOr<QueuePair*> {
    CompletionQueue* cq = hi_state->second.cqs();
    return hi_nic->TryCreateQueuePair(cq, cq);
  }();
  if (!hi_qp.ok()) {
    (void)lo_nic->DestroyQueuePair(*lo_qp);
    return hi_qp.status();
  }
  Status connected = (*lo_qp)->Connect(*hi_qp);
  if (!connected.ok()) return connected;

  ++stats_.creates;
  Lane& entry = lanes_[key];
  entry.lo_qp = *lo_qp;
  entry.hi_qp = *hi_qp;
  return local == key.lo ? entry.lo_qp : entry.hi_qp;
}

void QpPool::TearDownLane(const LaneKey& key, const Lane& lane) {
  auto lo_state = endpoints_.find(key.lo);
  auto hi_state = endpoints_.find(key.hi);
  if (lo_state != endpoints_.end() && lo_state->second.on_teardown) {
    lo_state->second.on_teardown(key.lo, key.hi, key.lane);
  }
  if (hi_state != endpoints_.end() && hi_state->second.on_teardown) {
    hi_state->second.on_teardown(key.hi, key.lo, key.lane);
  }
  if (lo_state != endpoints_.end()) {
    (void)rdma_->nic(lo_state->second.host_id)->DestroyQueuePair(lane.lo_qp);
  }
  if (hi_state != endpoints_.end()) {
    (void)rdma_->nic(hi_state->second.host_id)->DestroyQueuePair(lane.hi_qp);
  }
}

}  // namespace rdma
}  // namespace rdmadl

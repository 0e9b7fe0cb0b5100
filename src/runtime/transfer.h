// TransferMechanism: how tensors cross process boundaries.
//
// One mechanism instance coordinates *both ends* of every cross-device edge
// of a distributed graph (it holds per-edge state such as preallocated
// receive buffers and distributed remote addresses, indexed by
// TransferEdge::id so no step-time call looks an edge up by key).
// Two implementations:
//
//   comm::RpcMechanism           — the gRPC baselines: one RPC stack
//                                  (serialize + ring-buffer copies) over
//                                  the plane it is built with, TCP
//                                  (gRPC.TCP) or RDMA (gRPC.RDMA).
//   comm::ZeroCopyRdmaMechanism  — the paper's mechanism: static placement
//                                  (§3.2), dynamic allocation (§3.3), graph-
//                                  analyzer integration (§3.4) and GPUDirect
//                                  (§3.5); its ZeroCopyOptions select the
//                                  sender-copy baseline (RDMA.cp), the
//                                  forced-dynamic protocol and the device
//                                  routes.
#ifndef RDMADL_SRC_RUNTIME_TRANSFER_H_
#define RDMADL_SRC_RUNTIME_TRANSFER_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/graph/partition.h"
#include "src/runtime/host_runtime.h"
#include "src/tensor/tensor.h"
#include "src/util/status.h"

namespace rdmadl {
namespace runtime {

class TransferMechanism {
 public:
  virtual ~TransferMechanism() = default;
  virtual std::string name() const = 0;

  // How _Recv nodes complete:
  //   kAsync   — the mechanism invokes a callback when the tensor arrives
  //              (message-based mechanisms; TF's RPC rendezvous).
  //   kPolling — the executor re-polls TryRecv under the polling-async
  //              scheduling of §4 (flag-byte mechanisms).
  enum class RecvMode { kAsync, kPolling };
  virtual RecvMode recv_mode() const = 0;

  // One-time setup after partitioning and shape inference: preallocates
  // receive-side buffers and distributes their addresses (§3.2/§3.3 setup
  // phase, which runs over the device library's vanilla RPC and is off the
  // critical path). edges[i].id == i. |done| fires in virtual time.
  virtual void Setup(const std::vector<graph::TransferEdge>& edges,
                     std::function<void(Status)> done) = 0;

  // Step boundary hook (step index is 0-based).
  virtual void BeginStep(int64_t step) {}

  // Executes a _Send node: ships |tensor| toward the edge's receiver.
  // Returns the synchronous CPU nanoseconds consumed on the calling executor
  // worker (serialization, staging copies, verb posting); the transfer itself
  // proceeds asynchronously and |on_sent| fires when the send completes
  // locally.
  virtual int64_t Send(const graph::TransferEdge& edge, const tensor::Tensor& tensor,
                       std::function<void(Status)> on_sent) = 0;

  // kPolling only: one poll attempt; on success fills |out| (consuming the
  // arrival, i.e. clearing the flag) and returns true.
  virtual bool TryRecv(const graph::TransferEdge& edge, tensor::Tensor* out) {
    return false;
  }
  // kPolling only: whether TryRecv(edge) would fail now having done nothing
  // but MissedRecv(edge). Pure, so a poller can predict a pass of misses and
  // charge it without polling.
  virtual bool RecvWouldMiss(const graph::TransferEdge& edge) const { return true; }
  // kPolling only: the observations a missed TryRecv(edge) makes: the
  // protocol checker's poll record, so callers may skip it when no
  // check::RdmaCheck is installed.
  virtual void MissedRecv(const graph::TransferEdge& edge) {}

  // kAsync only: registers the one-shot arrival callback for this step.
  virtual void RecvAsync(const graph::TransferEdge& edge,
                         std::function<void(const Status&, tensor::Tensor)> done) {}

  // ---- Graph-analyzer integration (§3.4); no-ops for RPC baselines ----

  // Which allocator node |node| on |host| should allocate its output from.
  virtual tensor::Allocator* AllocatorForNode(HostRuntime* host, const graph::Node& node,
                                              tensor::Allocator* default_allocator) {
    return default_allocator;
  }
  // The buffers one execution of |node| on |host| allocated, in call order
  // (ops::OpKernelContext::allocations), reported after its Compute.
  virtual void OnAllocations(HostRuntime* host, const graph::Node& node,
                             std::span<const void* const> buffers) {}
};

}  // namespace runtime
}  // namespace rdmadl

#endif  // RDMADL_SRC_RUNTIME_TRANSFER_H_

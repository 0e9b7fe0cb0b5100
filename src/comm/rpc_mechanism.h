// RPC-based tensor transfer baselines (§2.2): the gRPC-over-TCP and
// gRPC-over-RDMA mechanisms the paper compares against.
//
// Modelled per the paper's description of RPC overheads:
//   * every message is serialized at the sender and deserialized at the
//     receiver (proto-style, at CostModel::serialize_bytes_per_sec);
//   * each channel owns a fixed in-library ring buffer; messages larger than
//     it are fragmented at the sender (extra copy) and re-assembled at the
//     receiver (copy from the ring into the user buffer) — §2.2's
//     "additional data copy ... proportional to the message size";
//   * a fixed per-call dispatch overhead applies on both endpoints;
//   * gRPC-over-RDMA uses verbs transport speeds but keeps all of the above
//     (TF r1.2 wrapped RDMA *under* the gRPC abstraction), and reproduces the
//     documented TF crash on messages above 1 GB as a structured error.
#ifndef RDMADL_SRC_COMM_RPC_MECHANISM_H_
#define RDMADL_SRC_COMM_RPC_MECHANISM_H_

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/runtime/session.h"
#include "src/runtime/transfer.h"

namespace rdmadl {
namespace comm {

struct RpcStats {
  int64_t messages = 0;
  int64_t fragments = 0;
  uint64_t bytes = 0;
  uint64_t copied_bytes = 0;  // Ring-buffer + reassembly copies.
};

class RpcMechanism : public runtime::TransferMechanism {
 public:
  // |plane| selects the transport: kTcp -> gRPC.TCP, kRdma -> gRPC.RDMA.
  RpcMechanism(runtime::Cluster* cluster, net::Plane plane);

  std::string name() const override {
    return plane_ == net::Plane::kTcp ? "gRPC.TCP" : "gRPC.RDMA";
  }
  RecvMode recv_mode() const override { return RecvMode::kAsync; }

  void Setup(const std::vector<graph::TransferEdge>& edges,
             std::function<void(Status)> done) override;
  void BeginStep(int64_t step) override;

  int64_t Send(const graph::TransferEdge& edge, const tensor::Tensor& tensor,
               std::function<void(Status)> on_sent) override;
  void RecvAsync(const graph::TransferEdge& edge,
                 std::function<void(const Status&, tensor::Tensor)> done) override;

  const RpcStats& stats() const { return stats_; }

 private:
  struct Mailbox {
    // The edge's endpoints, resolved once at Setup, and its key for logs.
    runtime::HostRuntime* src = nullptr;
    runtime::HostRuntime* dst = nullptr;
    std::string key;
    bool has_tensor = false;
    tensor::Tensor tensor;
    // Transport failure parked here until the receiver asks (fault injection:
    // a dropped RPC fragment fails the whole message).
    Status error;
    std::function<void(const Status&, tensor::Tensor)> waiter;
  };

  // Hands an arrival (or, with a non-OK |status|, a transport failure) to
  // the edge's waiter, or parks it in the mailbox until RecvAsync.
  void Deliver(int edge_id, const Status& status, tensor::Tensor tensor);

  runtime::Cluster* cluster_;
  net::Plane plane_;
  RpcStats stats_;
  std::vector<Mailbox> mailboxes_;  // By TransferEdge::id.
};

}  // namespace comm
}  // namespace rdmadl

#endif  // RDMADL_SRC_COMM_RPC_MECHANISM_H_

#include "src/comm/rpc_mechanism.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace comm {

using runtime::HostRuntime;
using tensor::Tensor;

RpcMechanism::RpcMechanism(runtime::Cluster* cluster, net::Plane plane)
    : cluster_(cluster), plane_(plane) {}

void RpcMechanism::Setup(const std::vector<graph::TransferEdge>& edges,
                         std::function<void(Status)> done) {
  for (const graph::TransferEdge& edge : edges) {
    CHECK_EQ(edge.id, static_cast<int>(mailboxes_.size())) << "edges must be in id order";
    Mailbox& box = mailboxes_.emplace_back();
    box.src = cluster_->host(edge.src_device);
    box.dst = cluster_->host(edge.dst_device);
    box.key = edge.key;
  }
  // RPC needs no address distribution; connections are implicit.
  cluster_->simulator()->ScheduleAfter(0, [done = std::move(done)]() { done(OkStatus()); });
}

void RpcMechanism::BeginStep(int64_t step) {
  for (Mailbox& box : mailboxes_) {
    if (box.has_tensor || box.waiter || !box.error.ok()) {
      // A failed/aborted step can strand a delivery, a waiter (whose step
      // epoch has since advanced, making it a no-op), or a parked error.
      // Clear them so the retried step starts from a clean rendezvous.
      LOG(WARNING) << "mailbox " << box.key << " carried state across a step boundary; clearing";
      box.has_tensor = false;
      box.tensor = tensor::Tensor();
      box.error = OkStatus();
      box.waiter = nullptr;
    }
  }
}

int64_t RpcMechanism::Send(const graph::TransferEdge& edge, const Tensor& tensor,
                           std::function<void(Status)> on_sent) {
  HostRuntime* src = mailboxes_.at(edge.id).src;
  HostRuntime* dst = mailboxes_.at(edge.id).dst;
  const net::CostModel& cost = src->cost();
  sim::Simulator* simulator = src->simulator();
  const uint64_t bytes = tensor.TotalBytes();

  // TF r1.2's gRPC+RDMA path crashed on messages above 1 GB (observed in the
  // paper's Figure 8 and the SE model of Figure 10); reproduce it faithfully.
  if (plane_ == net::Plane::kRdma && bytes >= cost.rpc_rdma_max_message_bytes) {
    simulator->ScheduleAfter(0, [on_sent = std::move(on_sent), bytes]() {
      on_sent(Internal(StrCat("gRPC.RDMA transport crashed: message of ", bytes,
                              " bytes exceeds the 1 GB limit")));
    });
    return cost.rpc_dispatch_overhead_ns;
  }

  ++stats_.messages;
  stats_.bytes += bytes;

  const uint64_t ring = cost.rpc_ring_buffer_bytes;
  const uint64_t num_fragments = std::max<uint64_t>(1, (bytes + ring - 1) / ring);
  const bool fragmented = num_fragments > 1;

  // Shared completion state across fragment closures. Each message pins one
  // comm-CPU lane per endpoint so its own work is ordered while different
  // messages use gRPC's other threads.
  struct Flight {
    uint64_t fragments_remaining;
    uint64_t total_bytes;
    int edge_id = 0;
    Tensor tensor;  // Keeps the source buffer alive for the snapshot copy.
    std::function<void(Status)> on_sent;
    net::Link* src_cpu = nullptr;
    net::Link* dst_cpu = nullptr;
  };
  auto flight = std::make_shared<Flight>();
  flight->fragments_remaining = num_fragments;
  flight->total_bytes = bytes;
  flight->edge_id = edge.id;
  flight->tensor = tensor;
  flight->on_sent = std::move(on_sent);
  flight->src_cpu = src->comm_cpu();
  flight->dst_cpu = dst->comm_cpu_rx();

  const int64_t per_msg_delay = (plane_ == net::Plane::kTcp)
                                    ? cost.tcp_per_message_overhead_ns
                                    : cost.rdma_post_overhead_ns + cost.rdma_nic_processing_ns;

  // Sender pipeline: gRPC worker threads serialize fragment i (plus the
  // fragmentation copy when the message does not fit the ring buffer), then
  // hand it to the transport. Fragments of one message serialize back-to-back
  // on the sender's comm CPU.
  const int64_t start = simulator->Now() + cost.rpc_dispatch_overhead_ns;
  int64_t cpu_cursor = start;
  for (uint64_t i = 0; i < num_fragments; ++i) {
    const uint64_t frag_bytes = std::min<uint64_t>(ring, bytes - i * ring);
    ++stats_.fragments;
    int64_t prep_ns = net::CostNs(frag_bytes, cost.serialize_bytes_per_sec);
    if (i == 0) prep_ns += cost.rpc_dispatch_overhead_ns;  // Per-call dispatch on this thread.
    if (fragmented) {
      prep_ns += net::CostNs(frag_bytes, cost.memcpy_bytes_per_sec);
      stats_.copied_bytes += frag_bytes;
    }
    const int64_t ser_end = flight->src_cpu->Reserve(cpu_cursor, std::max<int64_t>(prep_ns, 1));
    cpu_cursor = ser_end;
    const bool last = (i == num_fragments - 1);

    simulator->ScheduleAt(ser_end, [this, src, dst, flight, frag_bytes, per_msg_delay, last]() {
      sim::Simulator* simulator = src->simulator();
      src->rdma_device()->nic()->fabric()->Transfer(
          src->endpoint().host_id, dst->endpoint().host_id, frag_bytes, plane_, per_msg_delay,
          nullptr, [this, src, dst, flight, frag_bytes, last, simulator](Status status) {
            if (!status.ok()) {
              // Lost fragment: gRPC surfaces a failed call; the whole message
              // is dead (no transparent fragment retry in this baseline).
              Deliver(flight->edge_id,
                      Status(status.code(), StrCat("RPC transfer failed: ", status.message())),
                      Tensor());
              return;
            }
            const net::CostModel& cost = src->cost();
            // Receiver: copy out of the in-library ring buffer into the user
            // buffer (§2.2), serialized on the receiver's comm CPU.
            const int64_t copy_ns = std::max<int64_t>(
                net::CostNs(frag_bytes, cost.memcpy_bytes_per_sec), 1);
            stats_.copied_bytes += frag_bytes;
            const int64_t copy_end = flight->dst_cpu->Reserve(simulator->Now(), copy_ns);
            if (!last) return;
            // Whole message re-assembled: deserialize + dispatch, then hand
            // the tensor to the rendezvous.
            // Deserialization plus the per-call dispatch both occupy the
            // receive thread.
            const int64_t deser_ns =
                net::CostNs(flight->total_bytes, cost.deserialize_bytes_per_sec) +
                cost.rpc_dispatch_overhead_ns;
            const int64_t deser_end =
                flight->dst_cpu->Reserve(copy_end, std::max<int64_t>(deser_ns, 1));
            simulator->ScheduleAt(deser_end, [this, dst, flight]() {
                  Tensor out(dst->default_allocator(), flight->tensor.dtype(),
                             flight->tensor.shape());
                  if (dst->real_memory()) {
                    std::memcpy(out.raw_data(), flight->tensor.raw_data(),
                                flight->tensor.TotalBytes());
                  }
                  Deliver(flight->edge_id, OkStatus(), std::move(out));
                });
          });
    });
  }

  // gRPC reports the send complete once the last fragment is handed to the
  // transport.
  simulator->ScheduleAt(cpu_cursor, [flight]() {
    auto cb = std::move(flight->on_sent);
    flight->on_sent = nullptr;
    cb(OkStatus());
  });

  // The executor worker is held only for the dispatch handoff; serialization
  // runs on gRPC's own threads (the comm CPU).
  return src->cost().rpc_dispatch_overhead_ns;
}

void RpcMechanism::Deliver(int edge_id, const Status& status, Tensor tensor) {
  Mailbox& box = mailboxes_.at(edge_id);
  if (box.waiter) {
    auto waiter = std::move(box.waiter);
    box.waiter = nullptr;
    waiter(status, std::move(tensor));
  } else if (!status.ok()) {
    box.error = status;
  } else {
    box.tensor = std::move(tensor);
    box.has_tensor = true;
  }
}

void RpcMechanism::RecvAsync(const graph::TransferEdge& edge,
                             std::function<void(const Status&, Tensor)> done) {
  Mailbox& box = mailboxes_.at(edge.id);
  CHECK(!box.waiter) << "duplicate RecvAsync for edge " << edge.key;
  if (!box.error.ok()) {
    Status err = box.error;
    box.error = OkStatus();
    cluster_->simulator()->ScheduleAfter(0, [done = std::move(done), err]() {
      done(err, Tensor());
    });
    return;
  }
  if (box.has_tensor) {
    Tensor t = std::move(box.tensor);
    box.has_tensor = false;
    box.tensor = Tensor();
    cluster_->simulator()->ScheduleAfter(0, [done = std::move(done), t]() mutable {
      done(OkStatus(), std::move(t));
    });
    return;
  }
  box.waiter = std::move(done);
}

}  // namespace comm
}  // namespace rdmadl

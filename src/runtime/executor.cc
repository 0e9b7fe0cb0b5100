#include "src/runtime/executor.h"

#include <utility>

#include "src/check/rdma_check.h"
#include "src/sim/trace.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace runtime {

using graph::Node;
using tensor::Tensor;

namespace {

// CPU worker contexts per host (inter-op parallelism).
constexpr int kNumWorkers = 4;
// Fixed per-op dispatch overhead (kernel launch, scheduling).
constexpr int64_t kOpDispatchNs = 1'500;

}  // namespace

Executor::Executor(HostRuntime* host, const graph::Graph* graph, TransferMechanism* mechanism,
                   const std::vector<graph::TransferEdge>& edges, ExecutorOptions options)
    : host_(host), graph_(graph), mechanism_(mechanism), options_(options) {
  compute_track_ = host->device_name() + " compute";
  send_track_ = host->device_name() + " send";
  kernels_.resize(graph->num_nodes());
  total_deps_.resize(graph->num_nodes(), 0);
  kind_.resize(graph->num_nodes(), NodeKind::kCompute);
  edge_of_node_.resize(graph->num_nodes(), nullptr);
  cost_ns_.resize(graph->num_nodes(), 0.0);
  for (const auto& node : graph->nodes()) {
    total_deps_[node->id()] =
        static_cast<int>(node->inputs().size() + node->control_inputs().size());
    if (node->op() == "_Send" || node->op() == "_Recv") {
      kind_[node->id()] = node->op() == "_Send" ? NodeKind::kSend : NodeKind::kRecv;
      edge_of_node_[node->id()] = &edges.at(node->GetAttr<int64_t>("transfer_id"));
      continue;
    }
    cost_ns_[node->id()] = node->GetAttrOr<double>("cost_ns", 0.0);
    auto kernel = ops::KernelRegistry::Global()->Create(*node);
    CHECK(kernel.ok()) << kernel.status();
    kernels_[node->id()] = std::move(kernel).value();
  }
}

int64_t Executor::CostOf(const Node& node) const {
  const double per_sample_ns = cost_ns_[node.id()];
  double multiplier = options_.batch_multiplier;
  // Straggler knob: a chaos-configured host runs its compute slower by the
  // fault injector's per-host dilation factor (1.0 everywhere when the knob
  // is off, so the arithmetic below is unchanged byte for byte).
  const sim::FaultInjector* injector =
      host_->rdma_device()->nic()->fabric()->fault_injector();
  if (injector != nullptr && injector->stragglers_configured()) {
    multiplier *= injector->ComputeDilation(host_->rdma_device()->nic()->host_id());
  }
  return kOpDispatchNs + static_cast<int64_t>(per_sample_ns * multiplier);
}

const graph::TransferEdge& Executor::EdgeOf(const Node& node) const {
  const graph::TransferEdge* edge = edge_of_node_[node.id()];
  CHECK(edge != nullptr) << "node " << node.name() << " is not a transfer op";
  return *edge;
}

void Executor::RunStepAsync(const std::unordered_map<std::string, Tensor>* feeds,
                            std::function<void(Status)> on_done) {
  CHECK(!in_flight_) << "step already running on " << host_->device_name();
  ++epoch_;
  in_flight_ = true;
  feeds_ = feeds;
  on_done_ = std::move(on_done);
  outputs_.assign(graph_->num_nodes(), Tensor());
  pending_ = total_deps_;
  ready_.clear();
  remaining_ = graph_->num_nodes();
  free_workers_ = kNumWorkers;
  failed_ = false;
  failed_polls_in_row_ = 0;
  delayed_kick_scheduled_ = false;  // A kick from an aborted step is stale.
  idle_kicks_ = 0;
  for (const auto& node : graph_->nodes()) {
    if (pending_[node->id()] == 0) ready_.push_back(node.get());
  }
  if (remaining_ == 0) {
    const uint64_t epoch = epoch_;
    host_->simulator()->ScheduleAfter(0, [this, epoch]() {
      if (epoch != epoch_) return;
      in_flight_ = false;
      auto done = std::move(on_done_);
      done(OkStatus());
    });
    return;
  }
  MaybeDispatch();
}

void Executor::Abort(const Status& status) {
  if (!in_flight_) return;
  ++epoch_;  // Invalidate every scheduled event of the aborted step.
  failed_ = true;
  in_flight_ = false;
  ready_.clear();
  auto done = std::move(on_done_);
  if (done) done(status);
}

const Tensor* Executor::OutputOf(const Node* node) const {
  if (node == nullptr || node->id() >= static_cast<int>(outputs_.size())) return nullptr;
  return &outputs_[node->id()];
}

const Tensor* Executor::OutputOf(const std::string& node_name) const {
  return OutputOf(graph_->FindNode(node_name));
}

void Executor::MaybeDispatch() {
  while (!failed_ && !ready_.empty()) {
    // Polling-async fairness/livelock guard (§4): when every queued node is a
    // poll that already failed this pass, yield for the idle backoff
    // (net::IdlePollBackoffNs) instead of spinning at the current instant.
    // The kick is a poll tick (Tick below).
    if (failed_polls_in_row_ >= static_cast<int>(ready_.size())) {
      if (!delayed_kick_scheduled_) {
        delayed_kick_scheduled_ = true;
        host_->simulator()->ArmPoll(net::IdlePollBackoffNs(host_->cost(), idle_kicks_), this,
                                    epoch_, /*jittered=*/false);
      }
      return;
    }
    Node* node = ready_.front();
    // Polling receives are handled inline by the scheduler's polling pass and
    // do not consume an executor worker: a poll attempt is ~100 ns, and a
    // failed one re-enqueues the node at the tail of the ready queue.
    if (kind_[node->id()] == NodeKind::kRecv &&
        mechanism_->recv_mode() == TransferMechanism::RecvMode::kPolling) {
      ready_.pop_front();
      PollRecv(node);
      continue;
    }
    if (free_workers_ == 0) return;
    ready_.pop_front();
    --free_workers_;
    StartNode(node);
  }
}

sim::Poller::Result Executor::Tick(uint64_t epoch) {
  if (epoch != epoch_) return kFired;
  ++idle_kicks_;
  if (IdlePassMisses()) {
    // The pass would poll every queued receive once, in queue order, and
    // re-arm this kick: charge it without running it.
    const int polls = static_cast<int>(ready_.size());
    stats_.poll_attempts += polls;
    stats_.failed_polls += polls;
    const bool checked = check::RdmaCheck::Current() != nullptr;
    if (checked) {
      for (const Node* node : ready_) mechanism_->MissedRecv(EdgeOf(*node));
    }
    failed_polls_in_row_ = polls;
    // At the backoff cap, with no checker to tell each poll to, the next
    // pass misses the same way until something else runs.
    const int64_t delay = net::IdlePollBackoffNs(host_->cost(), idle_kicks_);
    return {delay, !checked && net::IdlePollBackoffNs(host_->cost(), idle_kicks_ + 1) == delay};
  }
  delayed_kick_scheduled_ = false;
  failed_polls_in_row_ = 0;
  MaybeDispatch();
  return kFired;
}

void Executor::Skipped(uint64_t epoch, uint64_t n) {
  CHECK_EQ(epoch, epoch_);
  idle_kicks_ += static_cast<int>(n);
  const int64_t polls = static_cast<int64_t>(n) * static_cast<int64_t>(ready_.size());
  stats_.poll_attempts += polls;
  stats_.failed_polls += polls;
}

bool Executor::IdlePassMisses() const {
  if (failed_ || ready_.empty() ||
      mechanism_->recv_mode() != TransferMechanism::RecvMode::kPolling) {
    return false;
  }
  for (const Node* node : ready_) {
    if (kind_[node->id()] != NodeKind::kRecv || !mechanism_->RecvWouldMiss(EdgeOf(*node))) {
      return false;
    }
  }
  return true;
}

void Executor::StartNode(Node* node) {
  failed_polls_in_row_ = 0;
  if (kind_[node->id()] == NodeKind::kSend) {
    StartSend(node);
  } else if (kind_[node->id()] == NodeKind::kRecv) {
    StartRecv(node);
  } else {
    StartCompute(node);
  }
}

void Executor::StartCompute(Node* node) {
  ++stats_.nodes_executed;
  std::vector<Tensor> inputs;
  inputs.reserve(node->inputs().size());
  for (const graph::NodeInput& in : node->inputs()) {
    inputs.push_back(outputs_[in.node->id()]);
  }
  ops::OpKernelContext ctx(
      node, std::move(inputs),
      mechanism_->AllocatorForNode(host_, *node, host_->default_allocator()), host_->mode(),
      host_->resources(), feeds_);
  Status status = kernels_[node->id()]->Compute(&ctx);
  mechanism_->OnAllocations(host_, *node, ctx.allocations());
  if (!status.ok()) {
    FailStep(Status(status.code(),
                    StrCat(node->name(), " (", node->op(), "): ", status.message())));
    return;
  }
  Tensor output = ctx.output();
  const int64_t cost = CostOf(*node);
  if (cost > kOpDispatchNs) {
    // Cost-annotated ops serialize on the host's single accelerator
    // (HostRuntime::compute_unit); the dispatching CPU worker is released
    // after the launch overhead, so communication ops overlap with device
    // compute exactly as in TensorFlow.
    const int64_t done_at = host_->compute_unit()->Reserve(
        host_->simulator()->Now() + kOpDispatchNs, cost - kOpDispatchNs);
    sim::TraceSpan(compute_track_, node->name(),
                   done_at - (cost - kOpDispatchNs), done_at);
    const uint64_t epoch = epoch_;
    host_->simulator()->ScheduleAfter(kOpDispatchNs, [this, epoch]() {
      if (epoch != epoch_) return;
      ReleaseWorker();
    });
    host_->simulator()->ScheduleAt(done_at, [this, node, output, epoch]() {
      if (epoch != epoch_) return;
      FinishNode(node, output);
    });
    return;
  }
  // Dispatch-only ops (no cost annotation) finish on the CPU worker.
  const uint64_t epoch = epoch_;
  host_->simulator()->ScheduleAfter(cost, [this, node, output, epoch]() {
    if (epoch != epoch_) return;
    ReleaseWorker();
    FinishNode(node, output);
  });
}

void Executor::StartSend(Node* node) {
  ++stats_.nodes_executed;
  const graph::TransferEdge& edge = EdgeOf(*node);
  Tensor tensor = outputs_[node->inputs()[0].node->id()];
  const int64_t send_start = host_->simulator()->Now();
  const uint64_t epoch = epoch_;
  const int64_t sync_cost =
      mechanism_->Send(edge, tensor, [this, node, tensor, send_start, &edge, epoch](Status status) {
        if (epoch != epoch_) return;
        if (!status.ok()) {
          FailStep(status);
          return;
        }
        sim::TraceSpan(send_track_, edge.key, send_start, host_->simulator()->Now());
        FinishNode(node, tensor);
      });
  host_->simulator()->ScheduleAfter(kOpDispatchNs + sync_cost, [this, epoch]() {
    if (epoch != epoch_) return;
    ReleaseWorker();
  });
}

void Executor::StartRecv(Node* node) {
  ++stats_.nodes_executed;
  const graph::TransferEdge& edge = EdgeOf(*node);
  const uint64_t epoch = epoch_;
  mechanism_->RecvAsync(edge, [this, node, epoch](const Status& status, Tensor tensor) {
    if (epoch != epoch_) return;
    if (!status.ok()) {
      FailStep(status);
      return;
    }
    FinishNode(node, std::move(tensor));
  });
  host_->simulator()->ScheduleAfter(kOpDispatchNs, [this, epoch]() {
    if (epoch != epoch_) return;
    ReleaseWorker();
  });
}

void Executor::PollRecv(Node* node) {
  ++stats_.poll_attempts;
  const graph::TransferEdge& edge = EdgeOf(*node);
  Tensor received;
  const bool ready = mechanism_->TryRecv(edge, &received);
  const int64_t poll_cost = host_->cost().flag_poll_cost_ns;
  if (ready) {
    ++stats_.nodes_executed;
    failed_polls_in_row_ = 0;
    idle_kicks_ = 0;
    // Clear-flag + dependent activation cost, then complete.
    const uint64_t epoch = epoch_;
    host_->simulator()->ScheduleAfter(poll_cost, [this, node, received, epoch]() {
      if (epoch != epoch_) return;
      FinishNode(node, received);
    });
    return;
  }
  // Failed poll: back to the tail of the ready queue, synchronously (§4).
  ++stats_.failed_polls;
  ++failed_polls_in_row_;
  ready_.push_back(node);
}

void Executor::FinishNode(Node* node, Tensor output) {
  if (failed_) return;
  outputs_[node->id()] = std::move(output);
  for (Node* consumer : node->consumers()) {
    if (--pending_[consumer->id()] == 0) {
      ready_.push_back(consumer);
      failed_polls_in_row_ = 0;
    }
  }
  if (--remaining_ == 0) {
    in_flight_ = false;
    ++stats_.steps;
    auto done = std::move(on_done_);
    done(OkStatus());
    return;
  }
  MaybeDispatch();
}

void Executor::FailStep(const Status& status) {
  if (failed_) return;
  failed_ = true;
  in_flight_ = false;
  auto done = std::move(on_done_);
  done(status);
}

void Executor::ReleaseWorker() {
  ++free_workers_;
  if (!failed_) MaybeDispatch();
}

}  // namespace runtime
}  // namespace rdmadl

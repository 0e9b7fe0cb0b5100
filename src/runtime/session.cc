#include "src/runtime/session.h"

#include <utility>

#include "src/analyzer/shape_inference.h"
#include "src/ops/kernel.h"
#include "src/sim/trace.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace runtime {

Cluster::Cluster(const ClusterOptions& options)
    : options_(options),
      fabric_(&simulator_, options.cost, options.num_machines, options.topology),
      rdma_fabric_(&fabric_),
      directory_(&rdma_fabric_) {
  ops::RegisterStandardOps();
}

StatusOr<HostRuntime*> Cluster::AddProcess(const std::string& device_name, int machine) {
  if (hosts_.count(device_name) > 0) {
    return AlreadyExists(StrCat("process already exists: ", device_name));
  }
  if (machine < 0 || machine >= options_.num_machines) {
    return InvalidArgument(StrCat("machine index out of range: ", machine));
  }
  HostRuntimeOptions opts = options_.process_defaults;
  opts.device_name = device_name;
  opts.mode = options_.mode;
  const bool is_worker = device_name.rfind("worker", 0) == 0;
  opts.endpoint = Endpoint{machine, static_cast<uint16_t>(is_worker ? 7000 : 7001)};
  if (is_worker) {
    opts.tensors_on_gpu = options_.worker_tensors_on_gpu;
    opts.gpudirect = options_.worker_gpudirect;
  }
  opts.seed = options_.process_defaults.seed + hosts_.size() * 7919 + 1;
  RDMADL_ASSIGN_OR_RETURN(
      std::unique_ptr<HostRuntime> host,
      HostRuntime::Create(&directory_, opts, static_cast<int>(hosts_.size())));
  HostRuntime* raw = host.get();
  hosts_[device_name] = std::move(host);
  device_names_.push_back(device_name);
  return raw;
}

HostRuntime* Cluster::host(const std::string& device_name) const {
  auto it = hosts_.find(device_name);
  CHECK(it != hosts_.end()) << "unknown device " << device_name;
  return it->second.get();
}

DistributedSession::DistributedSession(Cluster* cluster, TransferMechanism* mechanism,
                                       graph::Graph* graph, SessionOptions options)
    : cluster_(cluster), mechanism_(mechanism), graph_(graph), options_(options) {}

Status DistributedSession::Setup() {
  CHECK(!setup_done_);
  // §3.4 step 1: static shape inference before partitioning, so _Send/_Recv
  // nodes inherit (possibly static) producer shapes.
  RDMADL_RETURN_IF_ERROR(analyzer::RunShapeInference(graph_));
  RDMADL_ASSIGN_OR_RETURN(partition_, graph::PartitionGraph(*graph_));
  edges_ = partition_.transfers;
  for (const graph::TransferEdge& edge : edges_) {
    edges_by_key_[edge.key] = edge;
  }
  for (graph::GraphPartition& part : partition_.partitions) {
    executors_[part.device] = std::make_unique<Executor>(
        cluster_->host(part.device), part.graph.get(), mechanism_, &edges_by_key_,
        options_.executor);
  }

  // Mechanism setup: receive-buffer preallocation + address distribution.
  bool done = false;
  Status setup_status;
  mechanism_->Setup(edges_, [&](Status s) {
    setup_status = std::move(s);
    done = true;
  });
  RDMADL_RETURN_IF_ERROR(cluster_->simulator()->RunUntilPredicate(
      [&] { return done; }, options_.max_events_per_step));
  RDMADL_RETURN_IF_ERROR(setup_status);
  setup_done_ = true;
  return OkStatus();
}

Status DistributedSession::RunStep(const std::unordered_map<std::string, tensor::Tensor>& feeds) {
  CHECK(setup_done_) << "call Setup() first";
  const int64_t start = cluster_->simulator()->Now();
  mechanism_->BeginStep(steps_run_);

  int pending = static_cast<int>(executors_.size());
  Status step_status;
  for (auto& [device, executor] : executors_) {
    executor->RunStepAsync(&feeds, [&pending, &step_status](Status s) {
      if (!s.ok() && step_status.ok()) step_status = std::move(s);
      --pending;
    });
  }
  // Stop as soon as every executor finished or any of them failed (a failed
  // executor would leave its peers waiting forever on dead transfers).
  const auto step_done = [&] { return pending == 0 || !step_status.ok(); };
  Status sim_status =
      options_.step_timeout_ns > 0
          ? cluster_->simulator()->RunUntilPredicateOrDeadline(
                step_done, start + options_.step_timeout_ns, options_.max_events_per_step)
          : cluster_->simulator()->RunUntilPredicate(step_done, options_.max_events_per_step);
  if (!step_status.ok() || !sim_status.ok()) {
    // The step is dead. Abort every executor still in flight NOW: their
    // scheduled events capture this frame's |pending|/|step_status| by
    // reference and must be invalidated before we return.
    const Status abort_status =
        !step_status.ok() ? step_status
                          : Status(sim_status.code(),
                                   StrCat("step did not complete: ", sim_status.message(),
                                          " (mechanism=", mechanism_->name(), ")"));
    for (auto& [device, executor] : executors_) {
      if (executor->step_in_flight()) executor->Abort(abort_status);
    }
    return abort_status;
  }
  ++steps_run_;
  last_step_duration_ns_ = cluster_->simulator()->Now() - start;
  sim::TraceSpan("session", StrCat("step ", steps_run_ - 1), start,
                 cluster_->simulator()->Now());
  return OkStatus();
}

Executor* DistributedSession::executor_for(const std::string& device) const {
  auto it = executors_.find(device);
  return it == executors_.end() ? nullptr : it->second.get();
}

}  // namespace runtime
}  // namespace rdmadl

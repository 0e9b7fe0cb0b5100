// Cluster: one simulated deployment — the event kernel, fabric, NICs, device
// directory and the per-process HostRuntimes (paper §5: each machine runs one
// worker process and one parameter-server process).
//
// DistributedSession: runs one placed data-flow graph across the cluster —
// partitions it, runs the analyzer's static shape inference, hands the
// cross-device edges to the transfer mechanism for setup (buffer
// preallocation + address distribution), then executes synchronous
// mini-batch steps.
#ifndef RDMADL_SRC_RUNTIME_SESSION_H_
#define RDMADL_SRC_RUNTIME_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/graph/partition.h"
#include "src/net/topology.h"
#include "src/runtime/executor.h"
#include "src/runtime/host_runtime.h"
#include "src/runtime/transfer.h"

namespace rdmadl {
namespace runtime {

struct ClusterOptions {
  int num_machines = 1;
  net::CostModel cost;
  // Fabric shape; the default (flat, full bisection) reproduces the paper's
  // single-switch testbed, a hierarchical config adds rack/spine hops.
  net::TopologyConfig topology;
  ops::ComputeMode mode = ops::ComputeMode::kReal;
  // Defaults applied to every process created by AddProcess.
  HostRuntimeOptions process_defaults;
  // Worker-process overrides (the GPUDirect experiments of §3.5/Table 3 keep
  // worker tensors in GPU memory; PS processes stay on the host CPU).
  bool worker_tensors_on_gpu = false;
  bool worker_gpudirect = false;
};

class Cluster {
 public:
  explicit Cluster(const ClusterOptions& options);

  // Creates the process hosting |device_name| ("worker:3", "ps:1") on machine
  // |machine|. Worker processes bind port 7000, PS processes port 7001.
  StatusOr<HostRuntime*> AddProcess(const std::string& device_name, int machine);

  HostRuntime* host(const std::string& device_name) const;
  const std::vector<std::string>& device_names() const { return device_names_; }

  sim::Simulator* simulator() { return &simulator_; }
  net::Fabric* fabric() { return &fabric_; }
  rdma::RdmaFabric* rdma_fabric() { return &rdma_fabric_; }
  device::DeviceDirectory* directory() { return &directory_; }
  const ClusterOptions& options() const { return options_; }
  ops::ComputeMode mode() const { return options_.mode; }

 private:
  // Declaration order is destruction-critical: the simulator is declared
  // LAST so it is destroyed FIRST — events abandoned after a failed step hold
  // Tensor closures whose buffers deallocate into the hosts' arenas, so the
  // hosts must still be alive when the event queue is torn down. (The fabric
  // constructor only stores &simulator_, so initializing it before the
  // simulator member is safe.)
  ClusterOptions options_;
  net::Fabric fabric_;
  rdma::RdmaFabric rdma_fabric_;
  device::DeviceDirectory directory_;
  std::map<std::string, std::unique_ptr<HostRuntime>> hosts_;
  std::vector<std::string> device_names_;
  sim::Simulator simulator_;
};

struct SessionOptions {
  ExecutorOptions executor;
  // Virtual-time budget per step. If > 0 and a step is still incomplete at
  // now + step_timeout_ns, RunStep aborts every in-flight executor and
  // returns kDeadlineExceeded instead of hanging virtual time (e.g. after a
  // host crash under fault injection). 0 = no deadline.
  int64_t step_timeout_ns = 0;
};

class DistributedSession {
 public:
  // |graph| must be fully placed. The mechanism outlives the session.
  DistributedSession(Cluster* cluster, TransferMechanism* mechanism, graph::Graph* graph,
                     SessionOptions options);

  // Shape inference -> partition -> executors -> mechanism setup. Runs the
  // simulator until setup completes.
  Status Setup();

  // Runs one synchronous step on every partition; returns once all have
  // completed, in virtual time. |feeds| is keyed by placeholder node name.
  Status RunStep(const std::unordered_map<std::string, tensor::Tensor>& feeds = {});

  // Virtual duration of the most recent step.
  int64_t last_step_duration_ns() const { return last_step_duration_ns_; }
  int64_t steps_run() const { return steps_run_; }

  const std::vector<graph::TransferEdge>& transfer_edges() const { return partition_.transfers; }
  Executor* executor_for(const std::string& device) const;
  Cluster* cluster() const { return cluster_; }

 private:
  Cluster* cluster_;
  TransferMechanism* mechanism_;
  graph::Graph* graph_;
  SessionOptions options_;

  bool setup_done_ = false;
  graph::PartitionResult partition_;
  std::map<std::string, std::unique_ptr<Executor>> executors_;
  int64_t last_step_duration_ns_ = 0;
  int64_t steps_run_ = 0;
};

}  // namespace runtime
}  // namespace rdmadl

#endif  // RDMADL_SRC_RUNTIME_SESSION_H_

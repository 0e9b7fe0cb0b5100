// Data-parallel parameter-server training (Figure 3 of the paper).
//
// BuildDataParallelGraph replicates a model's data-flow graph onto N workers
// and shards its variables round-robin across N parameter servers. Each
// worker's replica is: synthetic input -> forward chain -> backward chain
// producing one gradient tensor per variable; gradients flow to the owning PS
// which applies SGD in place. Weights flow PS -> worker at the start of every
// step; gradients flow worker -> PS — each worker moves 2x the model size per
// mini-batch, exactly the communication pattern the paper evaluates.
//
// TrainingDriver wires a full benchmark run: simulated cluster (one worker
// process + one PS process per machine, as in §5), transfer mechanism,
// distributed session, and virtual-time step measurement.
#ifndef RDMADL_SRC_TRAIN_PS_TRAINING_H_
#define RDMADL_SRC_TRAIN_PS_TRAINING_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/collective/collective.h"
#include "src/comm/rpc_mechanism.h"
#include "src/comm/zerocopy_mechanism.h"
#include "src/control/checkpoint.h"
#include "src/control/membership.h"
#include "src/models/model_spec.h"
#include "src/net/topology.h"
#include "src/runtime/session.h"
#include "src/sim/histogram.h"

namespace rdmadl {
namespace train {

enum class MechanismKind {
  kGrpcTcp,       // gRPC over TCP (TF default).
  kGrpcRdma,      // gRPC abstraction over verbs (TF r1.0+ RDMA path).
  kRdmaCp,        // One-sided RDMA with sender staging copy (analysis off).
  kRdmaZeroCopy,  // The paper's mechanism (§3).
};

const char* MechanismName(MechanismKind kind);

// How gradients are aggregated across machines.
enum class TrainingMode {
  kParameterServer,  // Figure 3: weights/gradients ship worker <-> PS.
  kAllReduce,        // Data-parallel SGD with a gradient ring all-reduce.
};

const char* TrainingModeName(TrainingMode mode);

struct TrainingConfig {
  models::ModelSpec model;
  int num_machines = 8;  // Each runs one worker + one PS process (§5).
  int batch_size = 32;   // Per-worker mini-batch.
  MechanismKind mechanism = MechanismKind::kRdmaZeroCopy;
  // kAllReduce drops the PS processes: every worker holds a full replica of
  // the variables and the per-step gradients are summed with a collective
  // all-reduce (ring or naive, over zero-copy RDMA or TCP staging depending
  // on |mechanism|). The collective is modeled back-to-back with the compute
  // step — a conservative bound that does not overlap it with backprop.
  TrainingMode mode = TrainingMode::kParameterServer;
  collective::Algorithm collective_algorithm = collective::Algorithm::kRing;
  // Local mode: the whole graph on one worker, no PS, no communication (the
  // "Local" line of Figure 11).
  bool local_only = false;
  // GPUDirect study (§3.5 / Table 3): keep worker tensors in GPU memory.
  bool tensors_on_gpu = false;
  bool gpudirect = false;
  // Device-to-device zero-copy routes: when both endpoints of a static-shape
  // edge are GDR-registered GPU arenas, skip staging entirely and write the
  // payload GPU-to-GPU as scatter/gather WRs with a host-polled flag. Off =
  // the pre-SG behavior (every GDR edge takes the dynamic host-metadata
  // protocol); GDR off makes this flag a no-op.
  bool gdr_device_routes = true;
  // Force the §3.3 dynamic protocol (ablation).
  bool force_dynamic = false;
  net::CostModel cost;
  // Fabric shape (flat by default; rack/spine for cluster-scale studies).
  net::TopologyConfig topology;
  int num_cqs = 4;           // §5: "4 CQs per device and 4 QPs per connection".
  int num_qps_per_peer = 4;
  // ---- Fault tolerance (pair with sim::FaultInjector on the fabric) ----
  // Virtual-time budget per step: a session step (or collective op) still
  // incomplete after this long is aborted with kDeadlineExceeded instead of
  // hanging virtual time. 0 = no deadline.
  int64_t step_timeout_ns = 0;
  // After a retryable failure (kUnavailable / kAborted / kDeadlineExceeded)
  // the driver quiesces the simulator, recovers every errored QP and resets
  // mechanism/collective transient state, then re-runs the step — up to this
  // many times before surfacing the error. Steps retried this way repeat
  // their compute, so throughput numbers degrade gracefully under faults.
  int max_step_retries = 0;
  // ---- Elastic recovery (failure detection + checkpoint/rollback) ----
  // With |elastic| = true, Initialize additionally starts a MembershipService
  // heartbeating every machine and a CheckpointManager snapshotting the
  // variables every |checkpoint_interval_steps| completed steps; RunElastic
  // then survives fail-stop crashes: a confirmed death shrinks the cluster
  // (graph rebuilt over the survivors, PS shards reassigned, collective ring
  // reconfigured), the last checkpoint is restored, and training continues.
  bool elastic = false;
  int checkpoint_interval_steps = 5;
  control::MembershipOptions membership;
  control::CheckpointOptions checkpoint;  // interval_steps is overridden above.
  // Parameter-server placement: 0 = one PS process colocated with the worker
  // on each machine (the paper's §5 deployment, the default); > 0 = that many
  // dedicated PS machines appended after the workers (machines
  // num_machines .. num_machines+num_ps-1), so elastic tests can crash a
  // worker and a parameter server independently.
  int num_ps = 0;
};

// Builds the placed graph. |graph| must be empty.
Status BuildDataParallelGraph(const models::ModelSpec& model, int num_workers, int num_ps,
                              int batch_size, bool local_only, graph::Graph* graph);

// Elastic overload: replicates onto the listed worker machines (replica w<m>
// runs on device "worker:<m>", keeping its original machine tag across
// reconfigurations) and shards the variables round-robin over |ps_devices|.
// Rebuilding with the survivor lists after a confirmed death is how the
// driver reassigns a dead server's shards.
Status BuildDataParallelGraph(const models::ModelSpec& model,
                              const std::vector<int>& worker_machines,
                              const std::vector<std::string>& ps_devices, int batch_size,
                              graph::Graph* graph);

// All-reduce variant over the listed worker machines: every worker holds its
// own replica of all variables and applies SGD locally (at GPU rates); there
// are no parameter servers and no cross-device edges. Gradient aggregation is
// the TrainingDriver's collective all-reduce, not part of the graph.
Status BuildAllReduceGraph(const models::ModelSpec& model,
                           const std::vector<int>& worker_machines, int batch_size,
                           graph::Graph* graph);

// Outcome of an elastic run (TrainingDriver::RunElastic).
struct ElasticReport {
  int requested_steps = 0;
  int completed_steps = 0;      // Steps standing after the final rollback.
  double samples_processed = 0;  // Cumulative samples behind completed_steps.
  int reconfigurations = 0;
  int steps_rolled_back = 0;  // Completed work repeated due to rollbacks.
  std::vector<int> removed_hosts;         // Machine ids, in confirmation order.
  int64_t last_detection_latency_ns = 0;  // Crash -> confirmed dead.
  int64_t last_recovery_ns = 0;           // Confirmed dead -> training resumed.
  int64_t elapsed_ns = 0;                 // Virtual time for the whole run.
};

class TrainingDriver {
 public:
  explicit TrainingDriver(TrainingConfig config);
  ~TrainingDriver();

  // Builds the cluster, graph and session; runs mechanism setup and warm-up
  // steps (step 0 is the zero-copy mechanism's allocation-tracing step).
  Status Initialize(int warmup_steps = 2);

  // One training step: a session step, plus (in kAllReduce mode) the gradient
  // all-reduce of every parameter element. Under fault injection, transient
  // transport failures are retried per TrainingConfig::max_step_retries; a
  // crashed host short-circuits to a typed kUnavailable error (fail-stop
  // hosts never heal, so retrying would only burn virtual time).
  Status RunStep();

  // Runs |steps| steps and returns the mean virtual step time in ms.
  StatusOr<double> MeasureStepTimeMs(int steps);

  // Elastic training loop (requires config.elastic). Runs until |steps|
  // post-warmup steps stand completed. A retryable step failure quiesces the
  // cluster and gives the failure detector its bounded window; a confirmed
  // death triggers recovery (shrink membership, rebuild the graph/session
  // over the survivors, reconfigure the collective ring, restore the last
  // checkpoint, roll the step/sample counters back) and the loop continues on
  // the survivors. Undetected (transient) failures retry the step as RunStep
  // does. Fails if every worker — or, in PS mode, every parameter server —
  // is lost. |steps| <= 0 is InvalidArgument.
  StatusOr<ElasticReport> RunElastic(int steps);

  runtime::Cluster* cluster() { return cluster_.get(); }
  runtime::DistributedSession* session() { return session_.get(); }
  // Current placed graph (rebuilt on every elastic reconfiguration).
  const graph::Graph* graph() const { return graph_.get(); }
  const TrainingConfig& config() const { return config_; }
  // Non-null when the mechanism is one of the RDMA zero-copy family.
  const comm::ZeroCopyRdmaMechanism* zerocopy_mechanism() const { return zerocopy_.get(); }
  const comm::RpcMechanism* rpc_mechanism() const { return rpc_.get(); }
  // Non-null in kAllReduce mode (after Initialize).
  collective::CollectiveGroup* collective() { return collective_.get(); }
  // Non-null when config.elastic (after Initialize).
  control::MembershipService* membership() { return membership_.get(); }
  control::CheckpointManager* checkpoint() { return checkpoint_.get(); }
  // Per-step virtual latency of every completed RunStep (retries included),
  // for tail-latency analysis; never reset across elastic reconfigurations.
  const sim::LatencyHistogram& step_latencies() const { return step_latencies_; }
  // Machine ids currently carrying workers (shrinks as hosts die).
  const std::vector<int>& worker_machines() const { return worker_machines_; }
  // Device names currently carrying variables, in shard round-robin order.
  const std::vector<std::string>& ps_devices() const { return ps_devices_; }

 private:
  Status RunStepOnce();
  // Post-failure cleanup: drains the simulator (stale events fire into their
  // epoch-guarded no-op closures), recovers errored QPs on every process and
  // clears mechanism/collective transient state.
  Status QuiesceAfterFailedStep();
  // Instantiates the transfer mechanism for the current graph (fresh edge
  // state — called at Initialize and again per reconfiguration).
  void MakeMechanism();
  // Builds graph + session over the current worker_machines_/ps_devices_ and
  // runs mechanism setup.
  Status BuildAndSetupSession();
  // Removes the confirmed-dead hosts from the membership lists and rebuilds
  // everything over the survivors; restores the checkpoint.
  Status RecoverFromFailure(ElasticReport* report);
  // Drops variables a surviving device still holds but whose shard the new
  // placement assigns elsewhere (keeps names unique for snapshots).
  void PurgeMovedVariables(const std::string& device,
                           const std::map<std::string, std::string>& var_device);

  TrainingConfig config_;
  std::unique_ptr<runtime::Cluster> cluster_;
  std::unique_ptr<graph::Graph> graph_;
  std::unique_ptr<comm::ZeroCopyRdmaMechanism> zerocopy_;
  std::unique_ptr<comm::RpcMechanism> rpc_;
  runtime::TransferMechanism* mechanism_ = nullptr;
  std::unique_ptr<runtime::DistributedSession> session_;
  std::unique_ptr<collective::CollectiveGroup> collective_;
  std::unique_ptr<control::MembershipService> membership_;
  std::unique_ptr<control::CheckpointManager> checkpoint_;
  sim::LatencyHistogram step_latencies_;
  // Current (elastic) membership. worker_machines_[i] hosts "worker:<id>";
  // ps_devices_ lists the PS device names still alive, paired with the
  // machines that host them in ps_machine_of_.
  std::vector<int> worker_machines_;
  std::vector<std::string> ps_devices_;
  std::map<std::string, int> ps_machine_of_;
  uint64_t allreduce_elements_ = 0;  // Gradient elements summed per step.
};

}  // namespace train
}  // namespace rdmadl

#endif  // RDMADL_SRC_TRAIN_PS_TRAINING_H_

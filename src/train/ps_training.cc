#include "src/train/ps_training.h"

#include <algorithm>
#include <utility>

#include "src/sim/fault.h"
#include "src/sim/trace.h"
#include "src/util/logging.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace train {

using graph::Graph;
using graph::Node;
using models::LayerSpec;
using models::ModelSpec;
using models::VariableSpec;
using tensor::TensorShape;

const char* TrainingModeName(TrainingMode mode) {
  switch (mode) {
    case TrainingMode::kParameterServer:
      return "parameter-server";
    case TrainingMode::kAllReduce:
      return "all-reduce";
  }
  return "?";
}

const char* MechanismName(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kGrpcTcp:
      return "gRPC.TCP";
    case MechanismKind::kGrpcRdma:
      return "gRPC.RDMA";
    case MechanismKind::kRdmaCp:
      return "RDMA.cp";
    case MechanismKind::kRdmaZeroCopy:
      return "RDMA.zerocp";
  }
  return "?";
}

namespace {

// Per-sample forward/backward time split: the backward pass costs roughly
// twice the forward pass.
constexpr double kForwardFraction = 1.0 / 3.0;

// SGD-apply throughput (bytes/sec) used to annotate ApplySgd cost: on a
// parameter server the update is host-DRAM-bound (multi-threaded); in local
// mode it runs on the GPU at HBM rates and is nearly free.
constexpr double kPsApplyBytesPerSec = 20.0e9;
constexpr double kGpuApplyBytesPerSec = 300.0e9;

// A variable (shard) node and the device it lives on.
struct VarNode {
  Node* node;
  std::string device;
};

// Builds worker |w|'s replica — synthetic input, forward chain, backward
// chain with one gradient tensor per variable (shard), and an ApplySgd on
// each variable's own device — against the given variable placement. Shared
// by the parameter-server and all-reduce graph builders, which differ only in
// where the variables live.
Status BuildReplica(const ModelSpec& model, int w, int batch_size,
                    const std::vector<std::vector<VarNode>>& layer_vars,
                    double apply_bytes_per_sec, Graph* graph) {
  const double per_sample_ns = model.per_sample_time_ms * 1e6;
  const std::string dev = StrCat("worker:", w);
  auto name = [&](const std::string& suffix) { return StrCat("w", w, "/", suffix); };

  // Synthetic input (generated on the fly, §5.2 — no disk loading).
  RDMADL_ASSIGN_OR_RETURN(Node * input,
                          graph->AddNode(name("input"), "SimOp", std::vector<Node*>{}));
  input->SetAttr("shape", TensorShape{batch_size, model.input_dim});
  input->set_device(dev);

  // Forward chain. For recurrent models the very first unrolled time step
  // already touches every gate's weights, so forward compute cannot begin
  // until all recurrent weights have arrived (the softmax layer is outside
  // the recurrence).
  std::vector<Node*> activations;
  Node* prev = input;
  for (size_t l = 0; l < model.layers.size(); ++l) {
    const LayerSpec& layer = model.layers[l];
    std::vector<Node*> inputs{prev};
    for (const VarNode& var : layer_vars[l]) inputs.push_back(var.node);
    if (model.recurrent && l == 0) {
      for (size_t other = 1; other + 1 < model.layers.size(); ++other) {
        for (const VarNode& var : layer_vars[other]) inputs.push_back(var.node);
      }
    }
    RDMADL_ASSIGN_OR_RETURN(Node * fwd,
                            graph->AddNode(name(StrCat("fwd/", layer.name)), "SimOp", inputs));
    fwd->SetAttr("shape", TensorShape{batch_size, layer.activation_dim});
    fwd->SetAttr("cost_ns", per_sample_ns * layer.cost_share * kForwardFraction);
    fwd->set_device(dev);
    activations.push_back(fwd);
    prev = fwd;
  }

  // Loss gradient seed.
  RDMADL_ASSIGN_OR_RETURN(Node * d_top,
                          graph->AddNode(name("bwd/top"), "SimOp", std::vector<Node*>{prev}));
  d_top->SetAttr("shape", TensorShape{batch_size, model.layers.back().activation_dim});
  d_top->set_device(dev);

  // Backward chain: one gradient tensor per variable, plus the activation
  // gradient flowing to the previous layer. For recurrent models every
  // gradient accumulates over all unrolled time steps (BPTT), so grad
  // tensors only materialize once the whole backward chain has finished —
  // gradient sends then cannot overlap backward compute, matching real RNN
  // training. For feed-forward models gradients stream out layer by layer.
  Node* d_act = d_top;
  Node* bwd_tail = nullptr;
  std::vector<std::pair<Node*, const VarNode*>> deferred_grads;
  for (int l = static_cast<int>(model.layers.size()) - 1; l >= 0; --l) {
    const LayerSpec& layer = model.layers[l];
    Node* below = (l > 0) ? activations[l - 1] : input;
    const double layer_bwd_ns = per_sample_ns * layer.cost_share * (1.0 - kForwardFraction);
    const double per_grad_ns = layer_bwd_ns / (layer_vars[l].size() + 1);

    for (size_t v = 0; v < layer_vars[l].size(); ++v) {
      const VarNode& var = layer_vars[l][v];
      std::vector<Node*> grad_inputs{d_act, below};
      RDMADL_ASSIGN_OR_RETURN(
          Node * grad,
          graph->AddNode(name(StrCat("grad/", var.node->name())), "SimOp", grad_inputs));
      if (model.recurrent) deferred_grads.emplace_back(grad, &var);
      grad->SetAttr("shape", var.node->GetAttr<TensorShape>("shape"));
      grad->SetAttr("cost_ns", per_grad_ns);
      grad->set_device(dev);

      // The variable's owner applies this worker's gradient in place.
      RDMADL_ASSIGN_OR_RETURN(
          Node * apply, graph->AddNode(name(StrCat("apply/", var.node->name())), "ApplySgd",
                                       std::vector<Node*>{var.node, grad}));
      apply->SetAttr("learning_rate", 0.01);
      apply->SetAttr("cost_ns",
                     static_cast<double>(
                         var.node->GetAttr<TensorShape>("shape").num_elements()) *
                         4.0 / apply_bytes_per_sec * 1e9);
      apply->set_device(var.device);
    }
    if (l > 0) {
      std::vector<Node*> dx_inputs{d_act};
      for (const VarNode& var : layer_vars[l]) dx_inputs.push_back(var.node);
      RDMADL_ASSIGN_OR_RETURN(
          Node * dx, graph->AddNode(name(StrCat("bwd/", layer.name)), "SimOp", dx_inputs));
      dx->SetAttr("shape", TensorShape{batch_size, model.layers[l - 1].activation_dim});
      dx->SetAttr("cost_ns", per_grad_ns);
      dx->set_device(dev);
      d_act = dx;
      bwd_tail = dx;
    }
  }
  if (model.recurrent && bwd_tail != nullptr) {
    for (auto& [grad, var] : deferred_grads) {
      RDMADL_RETURN_IF_ERROR(graph->AddControlEdge(bwd_tail, grad));
    }
  }
  return OkStatus();
}

}  // namespace

// Variables larger than this are partitioned across parameter servers, as
// TensorFlow deployments of the era did with min_max_variable_partitioner:
// without it, a 400 MB fc layer turns one PS into the cluster hotspot.
constexpr uint64_t kMaxVariableShardBytes = 128ull << 20;

namespace {

// Shared core: variables sharded round-robin over |var_devices| (§5:
// "variable tensors ... are placed in parameter servers in a round-robin
// fashion"), one replica per listed worker machine (replica w<m> on device
// "worker:<m>" — the tag survives reconfiguration so checkpoint entries keep
// their names). Oversized variables are partitioned across the servers.
Status BuildShardedGraph(const ModelSpec& model, const std::vector<int>& worker_machines,
                         const std::vector<std::string>& var_devices, int batch_size,
                         double apply_bytes_per_sec, Graph* graph) {
  if (worker_machines.empty() || var_devices.empty() || batch_size < 1) {
    return InvalidArgument("workers, variable devices and batch size must be non-empty");
  }
  const int num_ps = static_cast<int>(var_devices.size());
  std::vector<std::vector<VarNode>> layer_vars(model.layers.size());
  int var_index = 0;
  for (size_t l = 0; l < model.layers.size(); ++l) {
    for (const VariableSpec& var : model.layers[l].vars) {
      const uint64_t total_elements = var.shape.num_elements();
      const int num_shards =
          !var.shardable
              ? 1
              : static_cast<int>(std::min<uint64_t>(
                    (var.bytes() + kMaxVariableShardBytes - 1) / kMaxVariableShardBytes,
                    std::max<uint64_t>(num_ps, 1)));
      const uint64_t base = total_elements / num_shards;
      uint64_t assigned = 0;
      for (int shard = 0; shard < num_shards; ++shard) {
        const uint64_t elements =
            (shard == num_shards - 1) ? total_elements - assigned : base;
        assigned += elements;
        const std::string shard_name =
            num_shards == 1 ? var.name : StrCat(var.name, "/part_", shard);
        const std::string& device = var_devices[var_index % num_ps];
        RDMADL_ASSIGN_OR_RETURN(
            Node * node, graph->AddNode(shard_name, "Variable", std::vector<Node*>{}));
        node->SetAttr("shape", TensorShape{static_cast<int64_t>(elements)});
        node->SetAttr("init", std::string("zeros"));
        node->set_device(device);
        layer_vars[l].push_back(VarNode{node, device});
        ++var_index;
      }
    }
  }

  for (int w : worker_machines) {
    RDMADL_RETURN_IF_ERROR(
        BuildReplica(model, w, batch_size, layer_vars, apply_bytes_per_sec, graph));
  }
  return OkStatus();
}

}  // namespace

Status BuildDataParallelGraph(const ModelSpec& model, int num_workers, int num_ps,
                              int batch_size, bool local_only, Graph* graph) {
  if (num_workers < 1 || num_ps < 1 || batch_size < 1) {
    return InvalidArgument("workers, ps and batch size must be positive");
  }
  if (local_only) {
    // The whole graph on one worker: variables unsharded, SGD at GPU rates.
    return BuildShardedGraph(model, {0}, {"worker:0"}, batch_size, kGpuApplyBytesPerSec,
                             graph);
  }
  std::vector<int> worker_machines(num_workers);
  for (int w = 0; w < num_workers; ++w) worker_machines[w] = w;
  std::vector<std::string> ps_devices;
  ps_devices.reserve(num_ps);
  for (int p = 0; p < num_ps; ++p) ps_devices.push_back(StrCat("ps:", p));
  return BuildShardedGraph(model, worker_machines, ps_devices, batch_size,
                           kPsApplyBytesPerSec, graph);
}

Status BuildDataParallelGraph(const ModelSpec& model,
                              const std::vector<int>& worker_machines,
                              const std::vector<std::string>& ps_devices, int batch_size,
                              Graph* graph) {
  return BuildShardedGraph(model, worker_machines, ps_devices, batch_size,
                           kPsApplyBytesPerSec, graph);
}

Status BuildAllReduceGraph(const ModelSpec& model,
                           const std::vector<int>& worker_machines, int batch_size,
                           Graph* graph) {
  if (worker_machines.empty() || batch_size < 1) {
    return InvalidArgument("workers and batch size must be positive");
  }
  // Every worker holds a private, unsharded replica of every variable and
  // applies SGD to it locally at GPU rates; the cross-worker gradient sum is
  // the driver's collective all-reduce, outside the graph.
  for (int w : worker_machines) {
    const std::string dev = StrCat("worker:", w);
    std::vector<std::vector<VarNode>> layer_vars(model.layers.size());
    for (size_t l = 0; l < model.layers.size(); ++l) {
      for (const VariableSpec& var : model.layers[l].vars) {
        RDMADL_ASSIGN_OR_RETURN(
            Node * node, graph->AddNode(StrCat("w", w, "/var/", var.name), "Variable",
                                        std::vector<Node*>{}));
        node->SetAttr("shape",
                      TensorShape{static_cast<int64_t>(var.shape.num_elements())});
        node->SetAttr("init", std::string("zeros"));
        node->set_device(dev);
        layer_vars[l].push_back(VarNode{node, dev});
      }
    }
    RDMADL_RETURN_IF_ERROR(
        BuildReplica(model, w, batch_size, layer_vars, kGpuApplyBytesPerSec, graph));
  }
  return OkStatus();
}

TrainingDriver::TrainingDriver(TrainingConfig config) : config_(std::move(config)) {}
TrainingDriver::~TrainingDriver() = default;

void TrainingDriver::MakeMechanism() {
  session_.reset();  // The session references the mechanism; drop it first.
  zerocopy_.reset();
  rpc_.reset();
  mechanism_ = nullptr;
  switch (config_.mechanism) {
    case MechanismKind::kGrpcTcp:
      rpc_ = std::make_unique<comm::RpcMechanism>(cluster_.get(), net::Plane::kTcp);
      mechanism_ = rpc_.get();
      break;
    case MechanismKind::kGrpcRdma:
      rpc_ = std::make_unique<comm::RpcMechanism>(cluster_.get(), net::Plane::kRdma);
      mechanism_ = rpc_.get();
      break;
    case MechanismKind::kRdmaCp: {
      comm::ZeroCopyOptions options;
      options.graph_analysis = false;
      options.force_dynamic = config_.force_dynamic;
      options.gdr_device_routes = config_.gdr_device_routes;
      zerocopy_ = std::make_unique<comm::ZeroCopyRdmaMechanism>(cluster_.get(), options);
      mechanism_ = zerocopy_.get();
      break;
    }
    case MechanismKind::kRdmaZeroCopy: {
      comm::ZeroCopyOptions options;
      options.force_dynamic = config_.force_dynamic;
      options.gdr_device_routes = config_.gdr_device_routes;
      zerocopy_ = std::make_unique<comm::ZeroCopyRdmaMechanism>(cluster_.get(), options);
      mechanism_ = zerocopy_.get();
      break;
    }
  }
}

Status TrainingDriver::BuildAndSetupSession() {
  const bool all_reduce = config_.mode == TrainingMode::kAllReduce && !config_.local_only;
  graph_ = std::make_unique<Graph>();
  if (all_reduce) {
    RDMADL_RETURN_IF_ERROR(BuildAllReduceGraph(config_.model, worker_machines_,
                                               config_.batch_size, graph_.get()));
  } else if (config_.local_only) {
    RDMADL_RETURN_IF_ERROR(BuildDataParallelGraph(config_.model, 1, 1, config_.batch_size,
                                                  /*local_only=*/true, graph_.get()));
  } else {
    RDMADL_RETURN_IF_ERROR(BuildDataParallelGraph(config_.model, worker_machines_,
                                                  ps_devices_, config_.batch_size,
                                                  graph_.get()));
  }

  MakeMechanism();

  runtime::SessionOptions session_options;
  session_options.executor.batch_multiplier = std::max(
      1.0, static_cast<double>(config_.batch_size) / config_.model.saturation_batch);
  session_options.step_timeout_ns = config_.step_timeout_ns;
  session_ = std::make_unique<runtime::DistributedSession>(cluster_.get(), mechanism_,
                                                           graph_.get(), session_options);
  return session_->Setup();
}

Status TrainingDriver::Initialize(int warmup_steps) {
  // The fabric and topology CHECK these; a bad config is the caller's error.
  if (config_.num_machines <= 0) {
    return InvalidArgument(StrCat("num_machines must be positive, got ", config_.num_machines));
  }
  if (config_.topology.hierarchical() && !(config_.topology.oversubscription > 0.0)) {
    return InvalidArgument(StrCat("topology oversubscription must be positive, got ",
                                  config_.topology.oversubscription));
  }
  std::string poll_error = net::IdlePollScheduleError(config_.cost);
  if (!poll_error.empty()) return InvalidArgument(std::move(poll_error));
  const bool all_reduce = config_.mode == TrainingMode::kAllReduce && !config_.local_only;
  const bool dedicated_ps =
      !all_reduce && !config_.local_only && config_.num_ps > 0;
  const int num_machines =
      config_.num_machines + (dedicated_ps ? config_.num_ps : 0);

  runtime::ClusterOptions cluster_options;
  cluster_options.num_machines = num_machines;
  cluster_options.cost = config_.cost;
  cluster_options.topology = config_.topology;
  cluster_options.mode = ops::ComputeMode::kSimulated;
  cluster_options.process_defaults.rdma_arena_bytes = 96ull << 30;  // Virtual.
  cluster_options.process_defaults.num_cqs = config_.num_cqs;
  cluster_options.process_defaults.num_qps_per_peer = config_.num_qps_per_peer;
  cluster_options.worker_tensors_on_gpu = config_.tensors_on_gpu;
  cluster_options.worker_gpudirect = config_.gpudirect;
  cluster_ = std::make_unique<runtime::Cluster>(cluster_options);

  worker_machines_.clear();
  ps_devices_.clear();
  ps_machine_of_.clear();
  for (int m = 0; m < config_.num_machines; ++m) {
    RDMADL_RETURN_IF_ERROR(cluster_->AddProcess(StrCat("worker:", m), m).status());
    worker_machines_.push_back(m);
    if (!config_.local_only && !all_reduce && !dedicated_ps) {
      const std::string ps_name = StrCat("ps:", m);
      RDMADL_RETURN_IF_ERROR(cluster_->AddProcess(ps_name, m).status());
      ps_devices_.push_back(ps_name);
      ps_machine_of_[ps_name] = m;
    }
  }
  if (dedicated_ps) {
    for (int p = 0; p < config_.num_ps; ++p) {
      const int machine = config_.num_machines + p;
      const std::string ps_name = StrCat("ps:", p);
      RDMADL_RETURN_IF_ERROR(cluster_->AddProcess(ps_name, machine).status());
      ps_devices_.push_back(ps_name);
      ps_machine_of_[ps_name] = machine;
    }
  }

  RDMADL_RETURN_IF_ERROR(BuildAndSetupSession());

  if (all_reduce) {
    allreduce_elements_ = config_.model.TotalParamBytes() / sizeof(float);
    collective::CollectiveOptions copts;
    copts.algorithm = config_.collective_algorithm;
    copts.transport = config_.mechanism == MechanismKind::kGrpcTcp
                          ? collective::Transport::kTcpStaging
                          : collective::Transport::kRdmaZeroCopy;
    copts.materialize = false;  // Virtual gradient buffers: timing only.
    copts.num_cqs = config_.num_cqs;
    copts.op_timeout_ns = config_.step_timeout_ns;
    RDMADL_ASSIGN_OR_RETURN(
        collective_, collective::CollectiveGroup::Create(
                         cluster_->directory(), worker_machines_,
                         std::max<uint64_t>(allreduce_elements_, 1), copts));
  }

  if (config_.elastic) {
    std::vector<int> machines(num_machines);
    for (int m = 0; m < num_machines; ++m) machines[m] = m;
    RDMADL_ASSIGN_OR_RETURN(membership_,
                            control::MembershipService::Create(
                                cluster_->directory(), machines, config_.membership));
    membership_->Start();
    control::CheckpointOptions ckpt = config_.checkpoint;
    ckpt.interval_steps = config_.checkpoint_interval_steps;
    checkpoint_ = std::make_unique<control::CheckpointManager>(cluster_.get(), ckpt);
  }

  for (int i = 0; i < warmup_steps; ++i) {
    RDMADL_RETURN_IF_ERROR(RunStep());
  }
  return OkStatus();
}

namespace {

bool IsRetryableStepFailure(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kAborted ||
         status.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

Status TrainingDriver::RunStepOnce() {
  RDMADL_RETURN_IF_ERROR(session_->RunStep());
  if (collective_ == nullptr) return OkStatus();
  // Conservative bound: the all-reduce starts only after the whole compute
  // step (including local SGD applies) has finished.
  bool done = false;
  Status reduce_status;
  collective_->AllReduce(allreduce_elements_, [&](const Status& s) {
    reduce_status = s;
    done = true;
  });
  RDMADL_RETURN_IF_ERROR(
      cluster_->simulator()->RunUntilPredicate([&] { return done; }));
  return reduce_status;
}

Status TrainingDriver::QuiesceAfterFailedStep() {
  // Drain everything still scheduled: late completions of the dead step fire
  // into their epoch-guarded (no-op) closures instead of into the retry. The
  // failure detector's probe loop would re-arm forever, so it is paused for
  // the drain (its stale closures no-op too) and resumed after.
  if (membership_ != nullptr) membership_->Pause();
  RDMADL_RETURN_IF_ERROR(cluster_->simulator()->Run());
  for (const std::string& device : cluster_->device_names()) {
    RDMADL_RETURN_IF_ERROR(cluster_->host(device)->rdma_device()->RecoverChannels());
  }
  if (collective_ != nullptr) RDMADL_RETURN_IF_ERROR(collective_->ResetTransport());
  if (zerocopy_ != nullptr) zerocopy_->ResetTransientState();
  if (membership_ != nullptr) membership_->Resume();
  return OkStatus();
}

Status TrainingDriver::RunStep() {
  if (cluster_ == nullptr) return FailedPrecondition("RunStep before Initialize");
  const int64_t step_start = cluster_->simulator()->Now();
  Status status = RunStepOnce();
  for (int attempt = 0; attempt < config_.max_step_retries; ++attempt) {
    if (status.ok() || !IsRetryableStepFailure(status)) break;
    // Fail-stop crash: the host never comes back, so a retry can only time
    // out again. Surface the typed error immediately.
    const sim::FaultInjector* injector = cluster_->fabric()->fault_injector();
    if (injector != nullptr) {
      const int64_t now = cluster_->simulator()->Now();
      for (const auto& [host, at_ns] : injector->crash_times()) {
        if (at_ns <= now) {
          // Drain abandoned events before surfacing the error so the cluster
          // is left quiescent (in-flight closures fire into their
          // epoch-guarded no-ops instead of lingering in the queue).
          Status quiesce = QuiesceAfterFailedStep();
          if (!quiesce.ok()) {
            LOG(WARNING) << "quiesce after crash detection failed: " << quiesce;
          }
          return Unavailable(
                     StrCat("host", host, " crashed at t=", at_ns,
                            "ns; step cannot complete (", status.message(), ")"))
              .WithFailedHost(host)
              .WithContextFrom(status);
        }
      }
    }
    LOG(WARNING) << "step failed (" << status << "); retry " << attempt + 1 << "/"
                 << config_.max_step_retries;
    RDMADL_RETURN_IF_ERROR(QuiesceAfterFailedStep());
    status = RunStepOnce();
  }
  // Completed steps feed the tail-latency histogram; the recorded duration
  // includes any retries (that is the latency a training loop observes).
  if (status.ok()) {
    step_latencies_.Record(cluster_->simulator()->Now() - step_start);
  }
  return status;
}

void TrainingDriver::PurgeMovedVariables(
    const std::string& device, const std::map<std::string, std::string>& var_device) {
  runtime::HostRuntime* host = cluster_->host(device);
  if (host == nullptr) return;
  ops::ResourceManager* rm = host->resources();
  std::vector<std::string> moved;
  for (const auto& [name, var] : rm->variables()) {
    auto it = var_device.find(name);
    if (it != var_device.end() && it->second != device) moved.push_back(name);
  }
  std::sort(moved.begin(), moved.end());
  for (const std::string& name : moved) rm->RemoveVariable(name);
}

Status TrainingDriver::RecoverFromFailure(ElasticReport* report) {
  // Freeze the detector and drain so the rebuild starts from a quiescent
  // cluster: no in-flight closure may touch a device we are about to replace.
  membership_->Pause();
  RDMADL_RETURN_IF_ERROR(cluster_->simulator()->Run());
  const int64_t recovery_start = cluster_->simulator()->Now();

  std::vector<int> dead;
  for (int d : membership_->dead_hosts()) {
    if (std::find(report->removed_hosts.begin(), report->removed_hosts.end(), d) ==
        report->removed_hosts.end()) {
      dead.push_back(d);
    }
  }
  for (int d : dead) {
    report->removed_hosts.push_back(d);
    worker_machines_.erase(
        std::remove(worker_machines_.begin(), worker_machines_.end(), d),
        worker_machines_.end());
    for (auto it = ps_devices_.begin(); it != ps_devices_.end();) {
      if (ps_machine_of_.at(*it) == d) {
        it = ps_devices_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (worker_machines_.empty()) {
    return FailedPrecondition("elastic recovery impossible: no surviving workers");
  }
  const bool all_reduce = config_.mode == TrainingMode::kAllReduce && !config_.local_only;
  if (!all_reduce && !config_.local_only && ps_devices_.empty()) {
    return FailedPrecondition("elastic recovery impossible: no surviving parameter servers");
  }

  // Detection latency for the report: confirmation time minus the injected
  // crash time (reporting only — recovery never consults the injector).
  const sim::FaultInjector* injector = cluster_->fabric()->fault_injector();
  if (injector != nullptr) {
    for (int d : dead) {
      auto it = injector->crash_times().find(d);
      if (it != injector->crash_times().end()) {
        report->last_detection_latency_ns =
            membership_->confirmed_dead_at_ns(d) - it->second;
      }
    }
  }

  // Clean channels on every survivor before the new session's setup traffic.
  for (int m : worker_machines_) {
    RDMADL_RETURN_IF_ERROR(
        cluster_->host(StrCat("worker:", m))->rdma_device()->RecoverChannels());
  }
  for (const std::string& ps : ps_devices_) {
    RDMADL_RETURN_IF_ERROR(cluster_->host(ps)->rdma_device()->RecoverChannels());
  }

  // Rebuild graph + mechanism + session over the survivors. PS shards
  // reassign by the round-robin over the shrunken ps_devices_; all-reduce
  // replicas of dead workers simply disappear.
  RDMADL_RETURN_IF_ERROR(BuildAndSetupSession());
  if (collective_ != nullptr) {
    RDMADL_RETURN_IF_ERROR(collective_->Reconfigure(worker_machines_));
  }

  // Roll back to the last consistent cut, retargeted to the new placement.
  // Reassignment can move a shard between two *surviving* servers (the
  // round-robin re-deals over the shrunken list), so first purge any copy a
  // survivor holds for a variable that now lives elsewhere — otherwise the
  // next snapshot would see the same name on two live devices.
  std::map<std::string, std::string> var_device;
  for (const auto& node : graph_->nodes()) {
    if (node->op() == "Variable") var_device[node->name()] = node->device();
  }
  for (int m : worker_machines_) {
    PurgeMovedVariables(StrCat("worker:", m), var_device);
  }
  for (const std::string& ps : ps_devices_) {
    PurgeMovedVariables(ps, var_device);
  }
  if (checkpoint_->has_checkpoint()) {
    RDMADL_RETURN_IF_ERROR(checkpoint_->Restore(var_device));
  }

  ++report->reconfigurations;
  membership_->Resume();
  report->last_recovery_ns = cluster_->simulator()->Now() - recovery_start;
  sim::TraceInstant("elastic", cluster_->simulator()->Now(), "reconfigured: ",
                    worker_machines_.size(), " workers, ", ps_devices_.size(), " ps");
  return OkStatus();
}

StatusOr<ElasticReport> TrainingDriver::RunElastic(int steps) {
  if (!config_.elastic || membership_ == nullptr || checkpoint_ == nullptr) {
    return FailedPrecondition("RunElastic requires TrainingConfig::elastic");
  }
  if (steps <= 0) return InvalidArgument(StrCat("steps must be positive, got ", steps));
  ElasticReport report;
  report.requested_steps = steps;
  const int64_t run_start = cluster_->simulator()->Now();

  // Snapshots are scoped to the surviving membership: a dead server's
  // ResourceManager still holds the shards that were reassigned away from it.
  auto live_devices = [&] {
    std::vector<std::string> devices;
    for (int m : worker_machines_) devices.push_back(StrCat("worker:", m));
    for (const std::string& ps : ps_devices_) devices.push_back(ps);
    return devices;
  };

  // A checkpoint always exists, so the first rollback never restarts from
  // scratch further back than the beginning of this run.
  if (!checkpoint_->has_checkpoint()) {
    RDMADL_RETURN_IF_ERROR(
        checkpoint_->Snapshot(/*step=*/0, /*samples=*/0, live_devices()));
  }

  // Hosts already reconfigured away stay kDead in the membership view
  // forever; only a death we have not yet handled triggers (re)recovery.
  auto unhandled_death = [&] {
    for (int d : membership_->dead_hosts()) {
      if (std::find(report.removed_hosts.begin(), report.removed_hosts.end(), d) ==
          report.removed_hosts.end()) {
        return true;
      }
    }
    return false;
  };

  int completed = 0;
  double samples = 0;
  int transient_retries = 0;
  while (completed < steps) {
    // A death confirmed during (or right after) a successful step still
    // requires reconfiguration before the next step can run.
    if (unhandled_death()) {
      const int before = completed;
      RDMADL_RETURN_IF_ERROR(RecoverFromFailure(&report));
      completed = static_cast<int>(checkpoint_->step());
      samples = checkpoint_->samples();
      report.steps_rolled_back += before - completed;
      continue;
    }

    Status status = RunStepOnce();
    if (status.ok()) {
      ++completed;
      transient_retries = 0;
      samples += static_cast<double>(config_.batch_size) * worker_machines_.size();
      if (checkpoint_->ShouldSnapshot(completed)) {
        RDMADL_RETURN_IF_ERROR(checkpoint_->Snapshot(completed, samples, live_devices()));
      }
      continue;
    }
    if (!IsRetryableStepFailure(status)) return status;

    // Quiesce, then give the detector its bounded window to turn the step
    // failure into a confirmed membership change. No injector peeking here:
    // the detector has to earn the verdict through missed leases.
    RDMADL_RETURN_IF_ERROR(QuiesceAfterFailedStep());
    if (!unhandled_death()) {
      const int64_t deadline =
          cluster_->simulator()->Now() + membership_->detection_bound_ns();
      Status wait = cluster_->simulator()->RunUntilPredicateOrDeadline(
          unhandled_death, deadline);
      if (!wait.ok() && wait.code() != StatusCode::kDeadlineExceeded &&
          wait.code() != StatusCode::kFailedPrecondition) {
        return wait;
      }
    }
    if (!unhandled_death()) {
      // Nobody died within the bound: transient failure, retry the step.
      if (transient_retries++ >= std::max(config_.max_step_retries, 1)) {
        return status;
      }
      LOG(WARNING) << "elastic step failed (" << status
                   << "); no death confirmed, retrying";
    }
    // Loop: either reconfigure (death confirmed) or retry the step.
  }

  report.completed_steps = completed;
  report.samples_processed = samples;
  report.elapsed_ns = cluster_->simulator()->Now() - run_start;
  return report;
}

StatusOr<double> TrainingDriver::MeasureStepTimeMs(int steps) {
  if (steps <= 0) return InvalidArgument(StrCat("steps must be positive, got ", steps));
  if (cluster_ == nullptr) return FailedPrecondition("MeasureStepTimeMs before Initialize");
  const int64_t start = cluster_->simulator()->Now();
  for (int i = 0; i < steps; ++i) {
    RDMADL_RETURN_IF_ERROR(RunStep());
  }
  const int64_t elapsed = cluster_->simulator()->Now() - start;
  return static_cast<double>(elapsed) / steps / 1e6;
}

}  // namespace train
}  // namespace rdmadl

// ps_train: AlexNet data-parallel training on the paper's testbed shape (§5:
// 8 machines, each with one worker and one colocated parameter server),
// batch 32, the zero-copy RDMA mechanism, flat fabric. Seeded per-transfer
// latency spikes and jitter (sim::FaultInjector) make steps differ, so the
// tail is not a copy of the median. Op = one training step.
//
// This is the only workload that runs the executor, the graph, the zero-copy
// mechanism and small-tensor coalescing. AlexNet rather than Inception-v3:
// an Inception step costs about a second of wall time, too much for a run to
// hold the 100 steps a tail needs.
#include <memory>

#include "perfbench/harness.h"
#include "src/check/rdma_check.h"
#include "src/models/model_spec.h"
#include "src/sim/fault.h"
#include "src/sim/trace.h"
#include "src/train/ps_training.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace perfbench {
namespace {

constexpr int kMachines = 8;
constexpr int kBatch = 32;
constexpr int kWarmupSteps = 2;     // Step 0 is the allocation-tracing step.
constexpr int kPrefixSteps = 100;   // p90 then has exactly ten steps beyond it.
// Seeded noise on every transfer, at the magnitudes the repository's chaos
// runs already use (bench/bench_scale.cc ConfigureChaos): spikes of 1-20 us
// and up to 2 us of uniform jitter. Steps move only in 16 us poll ticks, so
// spikes hit 30% of transfers rather than the chaos runs' 5%: of 5%, 20% and
// 30%, the smallest share at which the p90 step exceeded the median on every
// seed tried. Spikes that land on a step's critical path make the tail.
constexpr double kSpikeProbability = 0.3;
constexpr int64_t kSpikeMinNs = 1'000;
constexpr int64_t kSpikeMaxNs = 20'000;
constexpr int64_t kJitterMaxNs = 2'000;
// Seeded per-machine compute speed within 1%: an AlexNet step is bound by
// compute on the slowest machine, so without it the median step would be the
// same spike-free step under every seed.
constexpr double kMaxDilation = 1.01;

train::TrainingConfig MakeConfig(Perturbation perturb) {
  train::TrainingConfig config;
  config.model = models::AlexNet();
  config.num_machines = kMachines;
  config.batch_size = kBatch;
  config.mechanism = perturb == Perturbation::kRdmaCp ? train::MechanismKind::kRdmaCp
                                                      : train::MechanismKind::kRdmaZeroCopy;
  if (perturb == Perturbation::kBandwidth80) config.cost.rdma_bandwidth_bytes_per_sec *= 0.8;
  return config;
}

std::string Physics(const train::TrainingConfig& config) {
  PhysicsJson p;
  p.AddCost(config.cost);
  p.AddTopology(config.topology);
  p.AddEngine(comm::TransferEngineOptions{});  // What the mechanism's engines use.
  p.Add("workload.model", config.model.name);
  p.Add("workload.machines", static_cast<int64_t>(config.num_machines));
  p.Add("workload.batch", static_cast<int64_t>(config.batch_size));
  p.Add("workload.mechanism", std::string(train::MechanismName(config.mechanism)));
  p.Add("workload.qps_per_peer", static_cast<int64_t>(config.num_qps_per_peer));
  p.Add("workload.spike_probability", kSpikeProbability);
  p.Add("workload.spike_min_ns", kSpikeMinNs);
  p.Add("workload.spike_max_ns", kSpikeMaxNs);
  p.Add("workload.jitter_max_ns", kJitterMaxNs);
  p.Add("workload.max_dilation", kMaxDilation);
  return p.str();
}

struct World {
  // Declared first so it outlives the driver's fabric, which points at it.
  std::unique_ptr<sim::FaultInjector> injector;
  std::unique_ptr<train::TrainingDriver> driver;
  double initialize_s = 0;
};

StatusOr<std::unique_ptr<World>> Build(const train::TrainingConfig& config, uint64_t seed) {
  auto world = std::make_unique<World>();
  world->driver = std::make_unique<train::TrainingDriver>(config);
  const auto start = Clock::now();
  RDMADL_RETURN_IF_ERROR(world->driver->Initialize(kWarmupSteps));
  world->initialize_s = SecondsSince(start);

  world->injector = std::make_unique<sim::FaultInjector>(seed);
  sim::LinkFaultSpec spikes;
  spikes.spike_probability = kSpikeProbability;
  spikes.spike_min_ns = kSpikeMinNs;
  spikes.spike_max_ns = kSpikeMaxNs;
  world->injector->SetDefaultLinkFault(spikes);
  sim::StragglerSpec stragglers;
  stragglers.straggler_probability = 1.0;
  stragglers.dilation_max = kMaxDilation;
  stragglers.jitter_max_ns = kJitterMaxNs;
  world->injector->ConfigureStragglers(stragglers, kMachines);
  world->driver->cluster()->fabric()->SetFaultInjector(world->injector.get());
  return world;
}

struct ExecutorTotals {
  int64_t nodes = 0;
  int64_t polls = 0;
  int64_t failed_polls = 0;
};

ExecutorTotals ReadExecutors(train::TrainingDriver* driver) {
  ExecutorTotals t;
  for (const std::string& device : driver->cluster()->device_names()) {
    const runtime::Executor* executor = driver->session()->executor_for(device);
    if (executor == nullptr) continue;
    t.nodes += executor->stats().nodes_executed;
    t.polls += executor->stats().poll_attempts;
    t.failed_polls += executor->stats().failed_polls;
  }
  return t;
}

}  // namespace

RunResult RunPsTrain(const RunSpec& spec) {
  RunResult result;
  const train::TrainingConfig config = MakeConfig(spec.perturb);
  result.physics = Physics(config);
  const int prefix = spec.prefix_ops > 0 ? spec.prefix_ops : kPrefixSteps;

  std::unique_ptr<check::RdmaCheck> checker;
  if (spec.perturb == Perturbation::kRdmaCheck) checker = std::make_unique<check::RdmaCheck>();

  std::unique_ptr<World> world =
      SetUp<World>(spec, [&] { return Build(config, spec.seed); }, &result);
  if (world == nullptr) return result;

  train::TrainingDriver* driver = world->driver.get();
  runtime::Cluster* cluster = driver->cluster();
  sim::Simulator* simulator = cluster->simulator();
  const comm::ZeroCopyRdmaMechanism* zerocopy = driver->zerocopy_mechanism();
  const WorldCounters before = ReadCounters(simulator, cluster->fabric(), cluster->rdma_fabric());
  AddSetupLayers(before, *cluster->directory()->qp_pool(), &result.layer);
  result.layer["train.initialize_s"] = world->initialize_s;
  const comm::ZeroCopyStats zc_before = zerocopy->stats();
  const ExecutorTotals exec_before = ReadExecutors(driver);
  const int64_t session_steps_before = driver->session()->steps_run();

  // Weights flow PS -> worker and gradients worker -> PS: every worker moves
  // the whole model twice per step.
  const double step_payload_bytes =
      2.0 * static_cast<double>(config.model.TotalParamBytes()) * kMachines;

  sim::Tracer tracer;
  if (spec.trace) sim::Tracer::Install(&tracer);
  int64_t window_virtual_ns = 0;
  const auto window = Clock::now();
  for (int i = 0; i < prefix || SecondsSince(window) < spec.seconds; ++i) {
    const int64_t v0 = simulator->Now();
    const uint64_t e0 = simulator->events_dispatched();
    const auto w0 = Clock::now();
    const Status status = driver->RunStep();
    const double step_wall_ns = NanosSince(w0);
    const int64_t v1 = simulator->Now();
    ++result.attempted;
    if (!status.ok()) {
      ++result.failed;
      result.errors.push_back(StrCat("step ", i, " failed: ", status.ToString()));
      break;
    }
    sim::TraceSpan("perfbench", StrCat("step ", i), v0, v1);
    ++result.ops;
    window_virtual_ns += v1 - v0;
    result.blocks.push_back({step_wall_ns, simulator->events_dispatched() - e0});
    if (i < prefix) {
      result.virtual_ns.push_back(v1 - v0);
      result.prefix_virtual_ns += v1 - v0;
      result.prefix_payload_bytes += step_payload_bytes;
    }
  }
  sim::Tracer::Install(nullptr);

  const int64_t ops = std::max<int64_t>(result.ops, 1);
  const WorldCounters after = ReadCounters(simulator, cluster->fabric(), cluster->rdma_fabric());
  AddWindowLayers(before, after, result.ops, result.blocks, config.cost.rdma_mtu_bytes,
                  &result.layer);

  const comm::ZeroCopyStats& zc = zerocopy->stats();
  const int64_t coalesced = zc.coalesced_sends - zc_before.coalesced_sends;
  const int64_t striped = zc.striped_sends - zc_before.striped_sends;
  const int64_t degraded = zc.degraded_sends - zc_before.degraded_sends;
  const int64_t staged = zc.staged_sends - zc_before.staged_sends;
  const uint64_t staged_bytes = zc.staged_bytes - zc_before.staged_bytes;
  std::map<std::string, double>& l = result.layer;
  l["comm.engine.coalesced_sends_per_op"] = static_cast<double>(coalesced) / ops;
  l["comm.engine.striped_sends_per_op"] = static_cast<double>(striped) / ops;
  // The mechanism's engines are internal to the library. A striped write
  // posts one stripe per QP lane whenever the payload spans lanes x MTU,
  // which the engine's 4 MiB stripe threshold guarantees.
  l["comm.engine.stripe_lane_writes_per_op"] =
      static_cast<double>(striped) * config.num_qps_per_peer / ops;
  l["comm.zerocopy.static_transfers_per_op"] =
      static_cast<double>(zc.static_transfers - zc_before.static_transfers) / ops;
  l["comm.zerocopy.staged_bytes_per_op"] = static_cast<double>(staged_bytes) / ops;
  l["comm.zerocopy.degraded_sends"] = static_cast<double>(degraded);

  const ExecutorTotals exec = ReadExecutors(driver);
  const int64_t polls = exec.polls - exec_before.polls;
  l["runtime.nodes_per_step"] = static_cast<double>(exec.nodes - exec_before.nodes) / ops;
  l["runtime.poll_attempts_per_step"] = static_cast<double>(polls) / ops;
  l["runtime.failed_poll_ratio"] =
      polls > 0 ? static_cast<double>(exec.failed_polls - exec_before.failed_polls) / polls : 0;
  const int64_t retries = driver->session()->steps_run() - session_steps_before - result.ops;
  l["train.step_retries"] = static_cast<double>(retries);

  result.what_ran.push_back(StrCat("mechanism ", zerocopy->name(), "; per step: ",
                                   l["comm.zerocopy.static_transfers_per_op"], " static, ",
                                   l["comm.engine.coalesced_sends_per_op"], " coalesced, ",
                                   l["comm.engine.striped_sends_per_op"], " striped sends"));

  // "What ran" gates: the mechanisms this workload exists to exercise did
  // the work, and nothing fell back to a slower path.
  if (coalesced <= 0) result.errors.push_back("gate: no coalesced sends (coalescing never ran)");
  if (driver->collective() != nullptr) result.errors.push_back("gate: a collective group ran");
  if (degraded != 0) result.errors.push_back(StrCat("gate: ", degraded, " degraded sends"));
  if (staged != 0 || staged_bytes != 0) {
    result.errors.push_back(StrCat("gate: ", staged, " staged sends (", staged_bytes, " bytes)"));
  }
  if (retries != 0) result.errors.push_back(StrCat("gate: ", retries, " step retries"));

  if (spec.trace) {
    // Per-step split from the spans the executor already emits: compute
    // kernels serialize on each worker's accelerator, so the sum of a
    // worker's compute spans is its busy time; the rest of the step is
    // communication the schedule failed to hide.
    double worker_compute_us = 0;
    int64_t op_spans = 0;
    for (const Span& span : ParseSpans(tracer.ToJson())) {
      if (span.track.rfind("worker:", 0) == 0 &&
          span.track.size() > 8 && span.track.substr(span.track.size() - 8) == " compute") {
        worker_compute_us += span.dur_us;
      } else if (span.track == "perfbench") {
        ++op_spans;
      }
    }
    const double compute_ms = worker_compute_us / 1e3 / kMachines / ops;
    l["runtime.compute_ms_per_step"] = compute_ms;
    l["runtime.exposed_comm_ms_per_step"] =
        static_cast<double>(window_virtual_ns) / 1e6 / ops - compute_ms;
    if (op_spans != result.ops) {
      result.errors.push_back(StrCat("trace: ", op_spans, " step spans for ", result.ops, " steps"));
    }
    if (!spec.trace_path.empty()) {
      const Status written = tracer.WriteJson(spec.trace_path);
      if (!written.ok()) result.errors.push_back(written.ToString());
    }
  }

  world.reset();
  if (checker != nullptr && !checker->Finalize().empty()) {
    result.errors.push_back("RdmaCheck: " + checker->Report());
  }
  return result;
}

}  // namespace perfbench
}  // namespace rdmadl

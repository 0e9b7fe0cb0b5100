// incast_lanes: 256 workers each push one seeded-size message per barrier
// round into one aggregator through comm::TransferEngine::WriteWithFlag. The
// flat fabric's ports have bounded tail-drop queues with ECN marking, and
// every QP runs DCQCN. A finite per-QP WQE-engine rate and a stripe threshold
// below every message size make each message stripe over the paper's 4 QPs
// per connection. Op = one message; its latency runs from the round's start
// to the completion of its trailing flag.
//
// This is the only workload where congestion control, drops and retries,
// and lane striping do the work.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "perfbench/harness.h"
#include "src/check/rdma_check.h"
#include "src/device/rdma_device.h"
#include "src/sim/rng.h"
#include "src/sim/trace.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace perfbench {
namespace {

constexpr int kWorkers = 256;
constexpr int kQpsPerPeer = 4;  // §5: "4 QPs per connection".
constexpr uint16_t kPort = 7300;
// Message sizes, stratified log-uniform per round (one stratum per worker, in
// seeded order). At 48 KiB and above, MTU-aligned striping always yields
// exactly four stripes.
constexpr double kMinLog2Bytes = 15.585;  // 48 KiB.
constexpr double kMaxLog2Bytes = 17;      // 128 KiB.
constexpr uint64_t kMaxMessageBytes = 128 << 10;
// Aggregator ingress queue (bench_incast's shape): a round's aggregate far
// exceeds the capacity, so the drop policy must shed load.
constexpr uint64_t kQueueCapacityBytes = 2ull << 20;
constexpr uint64_t kEcnThresholdBytes = 256ull << 10;
// Deep RC retry budget with capped backoff, so no message exhausts its
// retries even with congestion control off.
constexpr int kRetryCount = 28;
constexpr int64_t kRetryBaseNs = 44'000;
constexpr int64_t kRetryCapNs = 10'240'000;
constexpr int64_t kDcqcnRecoveryPeriodNs = 500'000;
constexpr double kQpEngineBytesPerSec = 6.0e9;
constexpr int kWarmupRounds = 2;    // Round 1 connects every lane.
constexpr int kPrefixRounds = 144;  // 36864 messages: p99.9 has 37 beyond it.
// Workers per timed round whose payload bytes really move and are checked
// end to end; the rest elide the copy (WriteDesc::copy_bytes = false), which
// leaves timing and completion unchanged. Copying every payload would touch
// 21 MB per round and make the wall metric track the host's memory
// contention rather than the simulator.
constexpr int kChecksumSample = 8;

struct Config {
  net::CostModel cost;
  net::TopologyConfig topology;
  comm::TransferEngineOptions engine;
};

Config MakeConfig(Perturbation perturb) {
  Config c;
  c.cost.rdma_transport_retry_count = kRetryCount;
  c.cost.rdma_transport_retry_base_ns = kRetryBaseNs;
  c.cost.rdma_transport_retry_max_ns = kRetryCapNs;
  c.cost.rdma_qp_engine_bytes_per_sec = kQpEngineBytesPerSec;
  if (perturb == Perturbation::kBandwidth80) c.cost.rdma_bandwidth_bytes_per_sec *= 0.8;
  net::CongestionConfig& cc = c.topology.congestion;
  cc.queue_capacity_bytes = kQueueCapacityBytes;
  cc.ecn_threshold_bytes = kEcnThresholdBytes;
  cc.pause_on_overflow = false;
  cc.dcqcn = perturb != Perturbation::kNoDcqcn;
  cc.dcqcn_recovery_period_ns = kDcqcnRecoveryPeriodNs;
  c.engine.stripe_threshold_bytes = static_cast<uint64_t>(std::exp2(kMinLog2Bytes)) / 2;
  return c;
}

std::string Physics(const Config& c) {
  PhysicsJson p;
  p.AddCost(c.cost);
  p.AddTopology(c.topology);
  p.AddEngine(c.engine);
  p.Add("workload.workers", static_cast<int64_t>(kWorkers));
  p.Add("workload.qps_per_peer", static_cast<int64_t>(kQpsPerPeer));
  p.Add("workload.min_log2_bytes", kMinLog2Bytes);
  p.Add("workload.max_log2_bytes", kMaxLog2Bytes);
  return p.str();
}

struct Worker {
  std::unique_ptr<device::RdmaDevice> device;
  device::MemRegion source;  // Payload, then one flag byte holding 1.
  std::unique_ptr<comm::TransferEngine> engine;
  uint64_t bytes = 0;
  bool copy = true;  // Payload bytes really move this round.
  bool done = false;
  int64_t done_ns = 0;
  Status status;
};

struct World {
  explicit World(const Config& c)
      : fabric(&simulator, c.cost, kWorkers + 1, c.topology), rdma(&fabric), directory(&rdma) {}

  sim::Simulator simulator;
  net::Fabric fabric;
  rdma::RdmaFabric rdma;
  device::DeviceDirectory directory;
  std::unique_ptr<device::RdmaDevice> aggregator;
  device::MemRegion landing;  // One slot per worker, then one flag per worker.
  std::vector<Worker> workers;
  int64_t rounds = 0;
};

uint8_t* Slot(World* world, int w) {
  return world->landing.data() + static_cast<uint64_t>(w) * kMaxMessageBytes;
}
uint8_t* Flag(World* world, int w) {
  return world->landing.data() + static_cast<uint64_t>(kWorkers) * kMaxMessageBytes + w;
}

StatusOr<std::unique_ptr<World>> BuildDevices(const Config& config, uint64_t seed) {
  auto world = std::make_unique<World>(config);
  RDMADL_ASSIGN_OR_RETURN(world->aggregator,
                          device::RdmaDevice::Create(&world->directory, /*num_cqs=*/1,
                                                     kQpsPerPeer, Endpoint{0, kPort}));
  RDMADL_ASSIGN_OR_RETURN(world->landing, world->aggregator->AllocateMemRegion(
                                              kWorkers * (kMaxMessageBytes + 1)));
  sim::Rng fill(seed);
  world->workers.resize(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    Worker& worker = world->workers[w];
    RDMADL_ASSIGN_OR_RETURN(worker.device,
                            device::RdmaDevice::Create(&world->directory, /*num_cqs=*/1,
                                                       kQpsPerPeer, Endpoint{w + 1, kPort}));
    RDMADL_ASSIGN_OR_RETURN(worker.source, worker.device->AllocateMemRegion(kMaxMessageBytes + 1));
    uint8_t* data = worker.source.data();
    for (uint64_t i = 0; i < kMaxMessageBytes; i += 8) {
      const uint64_t word = fill.Next();
      std::memcpy(data + i, &word, 8);
    }
    data[kMaxMessageBytes] = 1;
    worker.engine = std::make_unique<comm::TransferEngine>(worker.device.get(), config.engine);
  }
  return world;
}

// Message sizes of one round: worker w gets stratum order[w] of kWorkers
// equal log-width strata, at a seeded point inside it.
void DrawSizes(sim::Rng* rng, World* world) {
  std::vector<int> order(kWorkers);
  std::iota(order.begin(), order.end(), 0);
  for (int i = kWorkers - 1; i > 0; --i) {
    std::swap(order[i], order[rng->Uniform(static_cast<uint64_t>(i) + 1)]);
  }
  for (int w = 0; w < kWorkers; ++w) {
    const double stratum = order[w] + rng->UniformDouble();
    const double log2_bytes = kMinLog2Bytes + (kMaxLog2Bytes - kMinLog2Bytes) * stratum / kWorkers;
    world->workers[w].bytes =
        std::min<uint64_t>(static_cast<uint64_t>(std::exp2(log2_bytes)), kMaxMessageBytes);
  }
}

// One barrier round: every worker posts its message and flag, the simulator
// drains, and every flag and every copied payload is checked. Returns the
// round's virtual start; per-message Status lands in each Worker, and the
// wall time spent in Simulator::Run in |run_wall_ns|.
int64_t RunRound(World* world, const Endpoint& aggregator, RunResult* result,
                 double* run_wall_ns) {
  const int64_t start = world->simulator.Now();
  const uint64_t round = static_cast<uint64_t>(world->rounds++);
  for (int w = 0; w < kWorkers; ++w) {
    Worker& worker = world->workers[w];
    // Stamp both ends of the payload so a stale landing from an earlier
    // round cannot pass the check.
    const uint64_t stamp = (round << 16) | static_cast<uint64_t>(w);
    std::memcpy(worker.source.data(), &stamp, 8);
    std::memcpy(worker.source.data() + worker.bytes - 8, &stamp, 8);
    worker.done = false;
    comm::TransferEngine::WriteDesc payload;
    payload.local_addr = worker.source.data();
    payload.lkey = worker.source.lkey();
    payload.remote_addr = reinterpret_cast<uint64_t>(Slot(world, w));
    payload.rkey = world->landing.rkey();
    payload.bytes = worker.bytes;
    payload.copy_bytes = worker.copy;
    comm::TransferEngine::WriteDesc flag = payload;
    flag.local_addr = worker.source.data() + kMaxMessageBytes;
    flag.remote_addr = reinterpret_cast<uint64_t>(Flag(world, w));
    flag.bytes = 1;
    flag.copy_bytes = true;
    worker.engine->WriteWithFlag(aggregator, payload, flag, /*lane_hint=*/0,
                                 [world, w](const Status& status) {
                                   Worker& done = world->workers[w];
                                   done.done = true;
                                   done.done_ns = world->simulator.Now();
                                   done.status = status;
                                 });
  }
  const auto run_start = Clock::now();
  const Status drained = world->simulator.Run();
  *run_wall_ns = NanosSince(run_start);
  if (!drained.ok()) result->errors.push_back("round did not drain: " + drained.ToString());
  for (int w = 0; w < kWorkers; ++w) {
    Worker& worker = world->workers[w];
    if (!worker.done) {
      worker.status = Internal("message never completed");
      worker.done_ns = world->simulator.Now();
    }
    const uint64_t stamp = (round << 16) | static_cast<uint64_t>(w);
    uint8_t* slot = Slot(world, w);
    if (worker.status.ok() &&
        (*Flag(world, w) != 1 ||
         (worker.copy && (std::memcmp(slot, &stamp, 8) != 0 ||
                          std::memcmp(slot + worker.bytes - 8, &stamp, 8) != 0)))) {
      result->errors.push_back(StrCat("round ", round, ": worker ", w, " landed stale data"));
    }
    *Flag(world, w) = 0;
  }
  return start;
}

StatusOr<std::unique_ptr<World>> Build(const Config& config, uint64_t seed) {
  RDMADL_ASSIGN_OR_RETURN(std::unique_ptr<World> world, BuildDevices(config, seed));
  sim::Rng rng(seed);
  RunResult warmup;
  double wall_ns = 0;
  for (int r = 0; r < kWarmupRounds; ++r) {
    DrawSizes(&rng, world.get());
    RunRound(world.get(), world->aggregator->endpoint(), &warmup, &wall_ns);
    for (const Worker& worker : world->workers) RDMADL_RETURN_IF_ERROR(worker.status);
  }
  if (!warmup.errors.empty()) return Internal(warmup.errors.front());
  return world;
}

comm::TransferEngine::Stats EngineTotals(const World& world) {
  comm::TransferEngine::Stats t;
  for (const Worker& worker : world.workers) {
    const comm::TransferEngine::Stats& s = worker.engine->stats();
    t.striped_writes += s.striped_writes;
    t.stripe_lane_writes += s.stripe_lane_writes;
    t.coalesced_writes += s.coalesced_writes;
  }
  return t;
}

}  // namespace

RunResult RunIncastLanes(const RunSpec& spec) {
  RunResult result;
  const Config config = MakeConfig(spec.perturb);
  result.physics = Physics(config);
  const int prefix_rounds =
      spec.prefix_ops > 0 ? std::max(1, spec.prefix_ops / kWorkers) : kPrefixRounds;

  std::unique_ptr<check::RdmaCheck> checker;
  if (spec.perturb == Perturbation::kRdmaCheck) checker = std::make_unique<check::RdmaCheck>();

  std::unique_ptr<World> world =
      SetUp<World>(spec, [&] { return Build(config, spec.seed); }, &result);
  if (world == nullptr) return result;

  sim::Simulator* simulator = &world->simulator;
  const Endpoint aggregator = world->aggregator->endpoint();
  const WorldCounters before = ReadCounters(simulator, &world->fabric, &world->rdma);
  AddSetupLayers(before, *world->directory.qp_pool(), &result.layer);
  const comm::TransferEngine::Stats engine_before = EngineTotals(*world);

  sim::Tracer tracer;
  if (spec.trace) sim::Tracer::Install(&tracer);
  // The timed rounds draw from their own stream, so warm-up never shifts them.
  sim::Rng sizes(spec.seed ^ 0x1ca57ULL);
  sim::Rng sample(spec.seed ^ 0xc4ecULL);
  const auto window = Clock::now();
  std::vector<int> sampled(kChecksumSample);
  for (int r = 0; r < prefix_rounds || SecondsSince(window) < spec.seconds; ++r) {
    DrawSizes(&sizes, world.get());
    for (Worker& worker : world->workers) worker.copy = false;
    for (int& w : sampled) {
      w = static_cast<int>(sample.Uniform(kWorkers));
      world->workers[w].copy = true;
    }
    WallBlock block;
    const uint64_t e0 = simulator->events_dispatched();
    const int64_t start = RunRound(world.get(), aggregator, &result, &block.wall_ns);
    block.events = simulator->events_dispatched() - e0;
    sim::TraceSpan("perfbench", StrCat("round ", r), start, simulator->Now());
    int failed = 0;
    int64_t round_end = start;
    for (const Worker& worker : world->workers) {
      ++result.attempted;
      round_end = std::max(round_end, worker.done_ns);
      if (!worker.status.ok()) {
        ++failed;
        if (result.errors.size() < 4) {
          result.errors.push_back(StrCat("round ", r, ": ", worker.status.ToString()));
        }
        continue;
      }
      ++result.ops;
      if (r < prefix_rounds) {
        result.virtual_ns.push_back(worker.done_ns - start);
        result.prefix_payload_bytes += static_cast<double>(worker.bytes);
      }
    }
    // Checksum the copied payloads whole against their sources (RunRound
    // already checked their stamps and every message's flag).
    for (int w : sampled) {
      const Worker& worker = world->workers[w];
      if (worker.status.ok() &&
          Fnv1a(Slot(world.get(), w), worker.bytes) != Fnv1a(worker.source.data(), worker.bytes)) {
        result.errors.push_back(StrCat("round ", r, ": worker ", w, " payload checksum differs"));
      }
    }
    // Goodput divides a round's bytes by the round's virtual length (the
    // barrier), not by the sum of its overlapping message latencies.
    if (r < prefix_rounds) result.prefix_virtual_ns += round_end - start;
    result.failed += failed;
    result.blocks.push_back(block);
    if (failed > 0) break;
  }
  sim::Tracer::Install(nullptr);
  const int64_t ops = std::max<int64_t>(result.ops, 1);
  const WorldCounters after = ReadCounters(simulator, &world->fabric, &world->rdma);
  AddWindowLayers(before, after, result.ops, result.blocks, config.cost.rdma_mtu_bytes,
                  &result.layer);

  const comm::TransferEngine::Stats engine = EngineTotals(*world);
  const int64_t striped = engine.striped_writes - engine_before.striped_writes;
  const int64_t lane_writes = engine.stripe_lane_writes - engine_before.stripe_lane_writes;
  std::map<std::string, double>& l = result.layer;
  l["comm.engine.coalesced_sends_per_op"] =
      static_cast<double>(engine.coalesced_writes - engine_before.coalesced_writes) / ops;
  l["comm.engine.striped_sends_per_op"] = static_cast<double>(striped) / ops;
  l["comm.engine.stripe_lane_writes_per_op"] = static_cast<double>(lane_writes) / ops;

  const uint64_t cnps = after.nic.cnps_received - before.nic.cnps_received;
  const uint64_t drops = after.congestion.overflow_drops - before.congestion.overflow_drops;
  result.what_ran.push_back(StrCat(result.ops, " messages: ", striped, " striped into ",
                                   lane_writes, " lane writes; ", drops, " drops, ", cnps,
                                   " CNPs"));
  // "What ran" gates: every message striped over every lane, and congestion
  // control had something to react to.
  if (striped != result.ops || lane_writes != result.ops * kQpsPerPeer) {
    result.errors.push_back(StrCat("gate: ", striped, " striped sends (", lane_writes,
                                   " lane writes) for ", result.ops, " messages"));
  }
  if (cnps == 0) result.errors.push_back("gate: no CNPs (DCQCN never reacted)");
  if (drops == 0) result.errors.push_back("gate: no overflow drops (the queue never filled)");

  if (spec.trace) {
    int64_t round_spans = 0;
    for (const Span& span : ParseSpans(tracer.ToJson())) {
      if (span.track == "perfbench") ++round_spans;
    }
    if (round_spans * kWorkers != result.attempted) {
      result.errors.push_back(StrCat("trace: ", round_spans, " round spans for ",
                                     result.attempted, " messages"));
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

// allreduce_rack: a 64-host CollectiveGroup on rack32-o4 (two racks of 32
// hosts, 4:1 oversubscribed uplinks) with Algorithm::kAuto and virtual
// payload. Op = one AllReduce whose size is drawn from the seed, log-uniform
// between 256 KiB and 16 MiB (gradient buckets); a full-size warm-up op runs
// first, in set-up, and pays the lazy address exchange.
//
// This is the only workload where the collective layer, its flag pollers and
// the algorithm choice do the work.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>

#include "perfbench/harness.h"
#include "src/check/rdma_check.h"
#include "src/collective/collective.h"
#include "src/device/rdma_device.h"
#include "src/sim/fault.h"
#include "src/sim/rng.h"
#include "src/sim/trace.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace perfbench {
namespace {

constexpr int kHosts = 64;
constexpr int kHostsPerRack = 32;
constexpr double kOversubscription = 4.0;
constexpr double kMinLog2Bytes = 18;  // 256 KiB.
constexpr double kMaxLog2Bytes = 24;  // 16 MiB.
constexpr uint64_t kMaxElements = (1ull << 24) / sizeof(float);
// Sizes are drawn stratified: each cycle of kCycle ops visits every one of
// kCycle equal log-width strata once, at a seeded point inside the stratum.
// A cycle is dealt into kBlocks blocks of interleaved strata (block b holds
// strata b, b + kBlocks, ...), each shuffled, in shuffled block order. Every
// block therefore spans the whole range and dispatches a similar mix of
// events, and the strata keep the sample quantiles steady across seeds.
// Strata are kept wide enough (4% of size) that the quantile ops still move
// between seeds: latency is a staircase in size, because flag pollers detect
// arrivals on 16 us backoff ticks.
constexpr int kBlocks = 10;
constexpr int kBlockOps = 10;
constexpr int kCycle = kBlocks * kBlockOps;
constexpr int kPrefixOps = 4 * kCycle;  // p90 has 40 ops beyond it.
// Seeded uniform jitter on every transfer. Without it the median op sits on
// one wide step of the latency staircase under almost every seed.
constexpr int64_t kJitterMaxNs = 1'000;
// One materialized all-reduce per run checks the sum bit for bit.
constexpr uint64_t kVerifyElements = 1 << 16;
constexpr uint16_t kVerifyPort = 7200;

struct Config {
  net::CostModel cost;
  net::TopologyConfig topology;
  collective::CollectiveOptions options;
};

Config MakeConfig(Perturbation perturb) {
  Config c;
  c.topology.hosts_per_rack = kHostsPerRack;
  c.topology.oversubscription = kOversubscription;
  c.options.algorithm = perturb == Perturbation::kForceRing ? collective::Algorithm::kRing
                                                             : collective::Algorithm::kAuto;
  c.options.materialize = false;
  if (perturb == Perturbation::kBandwidth80) c.cost.rdma_bandwidth_bytes_per_sec *= 0.8;
  return c;
}

std::string Physics(const Config& c) {
  PhysicsJson p;
  p.AddCost(c.cost);
  p.AddTopology(c.topology);
  p.AddEngine(c.options.engine);
  p.Add("workload.hosts", static_cast<int64_t>(kHosts));
  p.Add("workload.algorithm", std::string(collective::AlgorithmName(c.options.algorithm)));
  p.Add("workload.pipeline_depth", static_cast<int64_t>(c.options.pipeline_depth));
  p.Add("workload.num_cqs", static_cast<int64_t>(c.options.num_cqs));
  p.Add("workload.min_log2_bytes", kMinLog2Bytes);
  p.Add("workload.max_log2_bytes", kMaxLog2Bytes);
  p.Add("workload.jitter_max_ns", kJitterMaxNs);
  return p.str();
}

// Element counts of the timed ops, stratified log-uniform (see kCycle).
class SizeStream {
 public:
  explicit SizeStream(uint64_t seed) : rng_(seed) {}

  uint64_t NextElements() {
    if (pos_ == order_.size()) {
      std::vector<int> blocks(kBlocks);
      std::iota(blocks.begin(), blocks.end(), 0);
      Shuffle(&blocks);
      order_.clear();
      for (int b : blocks) {
        std::vector<int> block;
        for (int s = b; s < kCycle; s += kBlocks) block.push_back(s);
        Shuffle(&block);
        order_.insert(order_.end(), block.begin(), block.end());
      }
      pos_ = 0;
    }
    const double stratum = order_[pos_++] + rng_.UniformDouble();
    const double log2_bytes = kMinLog2Bytes + (kMaxLog2Bytes - kMinLog2Bytes) * stratum / kCycle;
    const uint64_t bytes = static_cast<uint64_t>(std::exp2(log2_bytes));
    return std::max<uint64_t>(bytes / sizeof(float), 1);
  }

 private:
  void Shuffle(std::vector<int>* v) {
    for (size_t i = v->size() - 1; i > 0; --i) {
      std::swap((*v)[i], (*v)[rng_.Uniform(i + 1)]);
    }
  }

  sim::Rng rng_;
  std::vector<int> order_;
  size_t pos_ = 0;
};

struct World {
  World(const Config& c, uint64_t seed)
      : injector(seed), fabric(&simulator, c.cost, kHosts, c.topology), rdma(&fabric),
        directory(&rdma) {
    sim::StragglerSpec jitter;
    jitter.jitter_max_ns = kJitterMaxNs;
    injector.ConfigureStragglers(jitter, kHosts);
    fabric.SetFaultInjector(&injector);
  }

  sim::FaultInjector injector;  // Outlives the fabric that points at it.
  sim::Simulator simulator;
  net::Fabric fabric;
  rdma::RdmaFabric rdma;
  device::DeviceDirectory directory;
  std::unique_ptr<collective::CollectiveGroup> group;  // Destroyed first.
  double create_s = 0;
};

std::vector<int> AllHosts() {
  std::vector<int> hosts(kHosts);
  std::iota(hosts.begin(), hosts.end(), 0);
  return hosts;
}

// Posts one all-reduce and drains the simulator. Stores the wall time spent in
// Simulator::Run in |run_wall_ns| when one is given.
Status RunAllReduce(sim::Simulator* simulator, collective::CollectiveGroup* group,
                    uint64_t elements, double* run_wall_ns = nullptr) {
  bool done = false;
  Status status = Internal("all-reduce never completed");
  group->AllReduce(elements, [&](const Status& s) {
    done = true;
    status = s;
  });
  const auto start = Clock::now();
  const Status ran = simulator->Run();
  if (run_wall_ns != nullptr) *run_wall_ns = NanosSince(start);
  RDMADL_RETURN_IF_ERROR(ran);
  return status;
}

StatusOr<std::unique_ptr<World>> Build(const Config& config, uint64_t seed) {
  auto world = std::make_unique<World>(config, seed);
  const auto start = Clock::now();
  RDMADL_ASSIGN_OR_RETURN(world->group, collective::CollectiveGroup::Create(
                                            &world->directory, AllHosts(), kMaxElements,
                                            config.options));
  world->create_s = SecondsSince(start);
  RDMADL_RETURN_IF_ERROR(RunAllReduce(&world->simulator, world->group.get(), kMaxElements));
  return world;
}

// Runs one all-reduce on materialized buffers holding small seeded integers
// (exact in float, so any summation order gives the same bits) and compares
// every rank's result with a serial scalar sum.
void VerifyMaterialized(World* world, const Config& config, uint64_t seed, RunResult* result) {
  collective::CollectiveOptions options = config.options;
  options.materialize = true;
  options.port = kVerifyPort;
  ++result->attempted;
  auto group = collective::CollectiveGroup::Create(&world->directory, AllHosts(),
                                                   kVerifyElements, options);
  if (!group.ok()) {
    ++result->failed;
    result->errors.push_back("verify group: " + group.status().ToString());
    return;
  }
  if ((*group)->algorithm() != world->group->algorithm()) {
    result->errors.push_back("verify group resolved a different algorithm");
  }
  sim::Rng rng(seed ^ 0x5eed5eed5eed5eedULL);
  std::vector<float> reference(kVerifyElements, 0.0f);
  for (int r = 0; r < kHosts; ++r) {
    float* data = (*group)->data(r);
    for (uint64_t i = 0; i < kVerifyElements; ++i) {
      data[i] = static_cast<float>(rng.Uniform(1024));
      reference[i] += data[i];
    }
  }
  const Status status = RunAllReduce(&world->simulator, group->get(), kVerifyElements);
  if (!status.ok()) {
    ++result->failed;
    result->errors.push_back("verify all-reduce: " + status.ToString());
    return;
  }
  for (int r = 0; r < kHosts; ++r) {
    if (std::memcmp((*group)->data(r), reference.data(), kVerifyElements * sizeof(float)) != 0) {
      result->errors.push_back(StrCat("rank ", r, " all-reduce result differs from the scalar sum"));
      return;
    }
  }
}

}  // namespace

RunResult RunAllreduceRack(const RunSpec& spec) {
  RunResult result;
  const Config config = MakeConfig(spec.perturb);
  result.physics = Physics(config);
  const int prefix = spec.prefix_ops > 0 ? spec.prefix_ops : kPrefixOps;

  std::unique_ptr<check::RdmaCheck> checker;
  if (spec.perturb == Perturbation::kRdmaCheck) checker = std::make_unique<check::RdmaCheck>();

  std::unique_ptr<World> world =
      SetUp<World>(spec, [&] { return Build(config, spec.seed); }, &result);
  if (world == nullptr) return result;

  sim::Simulator* simulator = &world->simulator;
  collective::CollectiveGroup* group = world->group.get();
  const WorldCounters before = ReadCounters(simulator, &world->fabric, &world->rdma);
  AddSetupLayers(before, *world->directory.qp_pool(), &result.layer);
  const collective::CollectiveStats stats_before = group->stats();

  sim::Tracer tracer;
  if (spec.trace) sim::Tracer::Install(&tracer);
  SizeStream sizes(spec.seed);
  WallBlock block;
  const auto window = Clock::now();
  for (int i = 0;; ++i) {
    if (i >= prefix && i % kBlockOps == 0 && SecondsSince(window) >= spec.seconds) break;
    const uint64_t elements = sizes.NextElements();
    const int64_t v0 = simulator->Now();
    const uint64_t e0 = simulator->events_dispatched();
    double op_wall_ns = 0;
    const Status status = RunAllReduce(simulator, group, elements, &op_wall_ns);
    const int64_t v1 = simulator->Now();
    ++result.attempted;
    if (!status.ok()) {
      ++result.failed;
      result.errors.push_back(StrCat("all-reduce ", i, " failed: ", status.ToString()));
      break;
    }
    sim::TraceSpan("perfbench", StrCat("allreduce ", i, " ", elements * sizeof(float), "B"), v0,
                   v1);
    ++result.ops;
    block.wall_ns += op_wall_ns;
    block.events += simulator->events_dispatched() - e0;
    if ((i + 1) % kBlockOps == 0) {
      result.blocks.push_back(block);
      block = WallBlock{};
    }
    if (i < prefix) {
      result.virtual_ns.push_back(v1 - v0);
      result.prefix_virtual_ns += v1 - v0;
      result.prefix_payload_bytes += static_cast<double>(elements * sizeof(float));
    }
  }
  sim::Tracer::Install(nullptr);

  const int64_t ops = std::max<int64_t>(result.ops, 1);
  const WorldCounters after = ReadCounters(simulator, &world->fabric, &world->rdma);
  AddWindowLayers(before, after, result.ops, result.blocks, config.cost.rdma_mtu_bytes,
                  &result.layer);

  const collective::CollectiveStats& st = group->stats();
  const int64_t allreduces = st.allreduces - stats_before.allreduces;
  const collective::Algorithm algorithm = group->algorithm();
  std::map<std::string, double>& l = result.layer;
  l["collective.ops_ring"] = algorithm == collective::Algorithm::kRing ? allreduces : 0;
  l["collective.ops_hierarchical"] =
      algorithm == collective::Algorithm::kHierarchical ? allreduces : 0;
  l["collective.ops_innetwork"] = algorithm == collective::Algorithm::kInNetwork ? allreduces : 0;
  l["collective.chunk_posts_per_op"] =
      static_cast<double>(st.ring_steps - stats_before.ring_steps) / ops;
  l["collective.bytes_sent_per_op"] =
      static_cast<double>(st.bytes_sent - stats_before.bytes_sent) / ops;
  l["collective.setup_rpcs"] = static_cast<double>(stats_before.setup_rpcs);
  l["collective.create_s"] = world->create_s;
  // The group's engines keep coalescing off and stripe only with a finite
  // WQE-engine rate, which this cost model leaves at 0 (unlimited).
  l["comm.engine.coalesced_sends_per_op"] = 0;
  l["comm.engine.striped_sends_per_op"] = 0;
  l["comm.engine.stripe_lane_writes_per_op"] = 0;

  result.what_ran.push_back(StrCat("algorithm requested ",
                                   collective::AlgorithmName(config.options.algorithm),
                                   ", resolved to ", collective::AlgorithmName(algorithm), " (",
                                   group->racks().size(), " racks)"));
  // "What ran" gate: exactly one algorithm ran every timed op.
  const int nonzero = (l["collective.ops_ring"] > 0) + (l["collective.ops_hierarchical"] > 0) +
                      (l["collective.ops_innetwork"] > 0);
  if (nonzero != 1 || allreduces != result.ops) {
    result.errors.push_back(StrCat("gate: ", allreduces, " all-reduces by ", nonzero,
                                   " algorithms for ", result.ops, " ops"));
  }

  if (spec.trace) {
    // Level split of the hierarchical schedule from the spans it emits per
    // (rank, lane): a rack leader's h-tree span is its rack's reduce tree and
    // its h-ring span is the spine ring across leaders. Reported as the mean
    // phase length of one lane at one leader.
    std::vector<std::string> leader_tracks;
    for (const std::vector<int>& rack : group->racks()) {
      leader_tracks.push_back(StrCat("host", rack.front(), " ", config.options.trace_prefix, "[",
                                     rack.front(), "]"));
    }
    double tree_us = 0, ring_us = 0;
    int64_t tree_spans = 0, ring_spans = 0, op_spans = 0;
    // Schedule spans per algorithm family, to check what actually ran
    // against what kAuto resolved to.
    std::map<collective::Algorithm, int64_t> family_spans;
    for (const Span& span : ParseSpans(tracer.ToJson())) {
      if (span.track == "perfbench") {
        ++op_spans;
        continue;
      }
      if (span.name.rfind("h-tree", 0) == 0 || span.name.rfind("h-ring", 0) == 0) {
        ++family_spans[collective::Algorithm::kHierarchical];
      } else if (span.name.rfind("rs l", 0) == 0 || span.name.rfind("ag l", 0) == 0) {
        ++family_spans[collective::Algorithm::kRing];
      } else if (span.name.rfind("innet l", 0) == 0) {
        ++family_spans[collective::Algorithm::kInNetwork];
      }
      if (std::find(leader_tracks.begin(), leader_tracks.end(), span.track) ==
          leader_tracks.end()) {
        continue;
      }
      if (span.name.rfind("h-tree", 0) == 0) {
        tree_us += span.dur_us;
        ++tree_spans;
      } else if (span.name.rfind("h-ring", 0) == 0) {
        ring_us += span.dur_us;
        ++ring_spans;
      }
    }
    l["collective.tree_ms_per_op"] = tree_spans > 0 ? tree_us / 1e3 / tree_spans : 0;
    l["collective.leader_ring_ms_per_op"] = ring_spans > 0 ? ring_us / 1e3 / ring_spans : 0;
    if (op_spans != result.ops) {
      result.errors.push_back(StrCat("trace: ", op_spans, " op spans for ", result.ops, " ops"));
    }
    for (const auto& [family, spans] : family_spans) {
      if (family != algorithm) {
        result.errors.push_back(StrCat("trace: ", spans, " ", collective::AlgorithmName(family),
                                       " spans, but the group resolved to ",
                                       collective::AlgorithmName(algorithm)));
      }
    }
    if (family_spans[algorithm] == 0) {
      result.errors.push_back(
          StrCat("trace: no ", collective::AlgorithmName(algorithm), " schedule spans"));
    }
    if (!spec.trace_path.empty()) {
      const Status written = tracer.WriteJson(spec.trace_path);
      if (!written.ok()) result.errors.push_back(written.ToString());
    }
  }

  VerifyMaterialized(world.get(), config, spec.seed, &result);
  world.reset();
  if (checker != nullptr && !checker->Finalize().empty()) {
    result.errors.push_back("RdmaCheck: " + checker->Report());
  }
  return result;
}

}  // namespace perfbench
}  // namespace rdmadl

// Shared vocabulary of the perfbench workloads: what a run is asked to do,
// what it hands back, and the helpers that turn exact samples and library
// counters into reported metrics.
#ifndef RDMADL_PERFBENCH_HARNESS_H_
#define RDMADL_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/transfer_engine.h"
#include "src/net/fabric.h"
#include "src/net/topology.h"
#include "src/rdma/qp_pool.h"
#include "src/rdma/verbs.h"
#include "src/sim/simulator.h"
#include "src/util/status.h"

namespace rdmadl {
namespace perfbench {

// One public-config change at a time, for the sensitivity self-test. kNone is
// the pinned configuration every reported run uses.
enum class Perturbation {
  kNone,
  kBandwidth80,  // CostModel::rdma_bandwidth_bytes_per_sec x 0.8.
  kRdmaCheck,    // check::RdmaCheck installed before the world is built.
  kNoDcqcn,      // CongestionConfig::dcqcn = false.
  kForceRing,    // CollectiveOptions::algorithm = kRing.
  kRdmaCp,       // TrainingConfig::mechanism = kRdmaCp.
};

bool ParsePerturbation(const std::string& name, Perturbation* out);

struct RunSpec {
  uint64_t seed = 1;
  // Wall seconds of the timed window. The window never closes before the
  // workload's fixed virtual prefix has run, and closes only on a block
  // boundary.
  double seconds = 10;
  // Ops whose exact virtual latencies form the virtual metrics; 0 selects the
  // workload default. Fixed per workload, so a seed always yields the same
  // samples however fast the machine is.
  int prefix_ops = 0;
  int setups = 11;  // Independent set-ups; setup_s is their median.
  bool trace = false;  // sim::Tracer installed over the timed window.
  Perturbation perturb = Perturbation::kNone;
  std::string trace_path;  // Chrome trace written here by traced runs.
};

// One block of the timed window (a step, ten all-reduces, a round): the wall
// time it spent simulating and the events the simulator dispatched in it.
struct WallBlock {
  double wall_ns = 0;
  uint64_t events = 0;
};

struct RunResult {
  std::vector<int64_t> virtual_ns;  // Exact latency of each prefix op.
  double prefix_payload_bytes = 0;  // Useful bytes the prefix ops completed.
  int64_t prefix_virtual_ns = 0;    // Virtual time those bytes took.
  std::vector<WallBlock> blocks;    // Every block of the timed window.
  std::vector<double> setup_s;      // One entry per set-up.
  int64_t ops = 0;        // Timed ops completed.
  int64_t attempted = 0;  // Ops started, output checks included.
  int64_t failed = 0;     // Ops whose Status was not OK.
  std::vector<std::string> errors;      // Failed gates and output checks.
  std::map<std::string, double> layer;  // Per-layer metrics.
  std::vector<std::string> what_ran;    // "What ran" lines for the log.
  std::string physics;                  // Effective configuration (JSON).
};

RunResult RunPsTrain(const RunSpec& spec);
RunResult RunAllreduceRack(const RunSpec& spec);
RunResult RunIncastLanes(const RunSpec& spec);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double NanosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

// Builds a fresh world spec.setups times (at least once), records each
// set-up's wall time, and keeps the last. On a failed set-up, records the
// failure and returns null.
template <typename World, typename BuildFn>
std::unique_ptr<World> SetUp(const RunSpec& spec, const BuildFn& build, RunResult* result) {
  std::unique_ptr<World> world;
  for (int s = 0; s < std::max(1, spec.setups); ++s) {
    world.reset();
    const auto start = Clock::now();
    StatusOr<std::unique_ptr<World>> built = build();
    if (!built.ok()) {
      ++result->attempted;
      ++result->failed;
      result->errors.push_back("set-up failed: " + built.status().ToString());
      return nullptr;
    }
    world = std::move(built).value();
    result->setup_s.push_back(SecondsSince(start));
  }
  return world;
}

// 64-bit FNV-1a over |bytes| bytes, continuing from |hash|.
constexpr uint64_t kFnv1aOffset = 1469598103934665603ULL;
inline uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash = kFnv1aOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) hash = (hash ^ p[i]) * 1099511628211ULL;
  return hash;
}

// ---- Exact statistics over per-op samples ----

// Nearest-rank percentile of an ascending-sorted sample set (pct in (0, 100]).
template <typename T>
T NearestRank(const std::vector<T>& sorted, double pct) {
  if (sorted.empty()) return T{};
  const size_t n = sorted.size();
  const size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  return sorted[std::clamp<size_t>(rank, 1, n) - 1];
}

// The highest percentile of {99.99, 99.9, 99, 90, 50} that still leaves at
// least ten samples strictly beyond its rank.
struct Tail {
  double pct = 0;
  int64_t value = 0;
  int64_t beyond = 0;
};
Tail HighestTail(const std::vector<int64_t>& sorted);

double Median(std::vector<double> values);

// Wall cost of one simulated event: the lowest ns per event of any block. A
// shared machine runs the same code up to 2.6x slower for stretches of tenths
// of a second to minutes, and neighbours only ever add time, so the
// fastest block is the steadiest estimate of the code's own speed. Dividing
// by events first keeps blocks that happen to do more work (larger
// all-reduces, rounds with more drops) from being judged slower.
double FloorNsPerEvent(const std::vector<WallBlock>& blocks);

// Wall ms per op spent simulating: the floor cost of an event times the
// events an op dispatched over the whole window. An event diet moves the
// second factor, a cheaper event loop the first.
double WallMsPerOp(const std::vector<WallBlock>& blocks, int64_t ops);

// Peak resident set size of this process, in MiB.
double PeakRssMb();

// ---- Per-layer counters ----

// Library counters of one simulated world, read before and after the timed
// window (deltas) or right after set-up (set-up cost).
struct WorldCounters {
  uint64_t events = 0;
  net::TransferStats rdma_plane;
  net::CongestionStats congestion;
  rdma::NicStats nic;  // Summed over every NIC.
  int64_t queue_pairs = 0;
};
WorldCounters ReadCounters(sim::Simulator* simulator, net::Fabric* fabric,
                           rdma::RdmaFabric* rdma);

// sim.*, net.* and rdma.* per-op metrics of a window of |ops| ops timed in
// |blocks|.
void AddWindowLayers(const WorldCounters& before, const WorldCounters& after, int64_t ops,
                     const std::vector<WallBlock>& blocks, uint64_t mtu_bytes,
                     std::map<std::string, double>* layer);
// rdma.* set-up metrics: registrations, their pinning cost, QPs and pool state.
void AddSetupLayers(const WorldCounters& at_setup, const rdma::QpPool& pool,
                    std::map<std::string, double>* layer);

// ---- Trace analysis ----

// One complete span of a Chrome trace produced by sim::Tracer::ToJson.
// Durations are exact to the trace's printed precision (six significant
// digits of microseconds); start times are not kept, since the format prints
// them too coarsely for interval arithmetic on long runs.
struct Span {
  std::string track;
  std::string name;
  double dur_us = 0;
};
std::vector<Span> ParseSpans(const std::string& chrome_json);

// ---- Physics pin ----

// Flat JSON object of the configuration a run used, key-sorted.
class PhysicsJson {
 public:
  void Add(const std::string& key, double value);
  void Add(const std::string& key, int64_t value);
  void Add(const std::string& key, const std::string& value);
  void AddCost(const net::CostModel& cost);
  void AddTopology(const net::TopologyConfig& topology);
  void AddEngine(const comm::TransferEngineOptions& engine);
  std::string str() const;

 private:
  std::map<std::string, std::string> fields_;
};

}  // namespace perfbench
}  // namespace rdmadl

#endif  // RDMADL_PERFBENCH_HARNESS_H_

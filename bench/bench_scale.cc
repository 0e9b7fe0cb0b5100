// Cluster-scale sweep (ISSUE 6): hosts x model x topology, far past the
// paper's 8-16 host testbed.
//
// Two phases:
//   * ring all-reduce over a CollectiveGroup (virtual payload memory) at up
//     to 1000 hosts — neighbor-only lanes, so the QP pool keeps total QP
//     count linear in hosts;
//   * one PS training step (colocated worker+PS per machine) at up to 256
//     hosts — the all-to-all pattern that actually pressures the pool's
//     max_queue_pairs cap.
//
// stdout carries only virtual-time results and deterministic counters (the
// determinism gate in scripts/check.sh --scale diffs two runs byte-for-byte);
// wall-clock milliseconds and simulator events/sec go to stderr. --json
// additionally writes machine-readable rows (BENCH_6.json via scripts/
// bench.sh).
//
// Flags:
//   --quick        small sweep (CI-sized)
//   --smoke        single 256-host point per phase (scripts/check.sh --scale)
//   --collectives  all-reduce phase only, with the multi-level algorithm
//                  series (ring vs hierarchical vs kAuto vs in-network) on
//                  the oversubscribed rack fabric (BENCH_7.json)
//   --check[=N]    install RdmaCheck and a seeded chaos injector (latency
//                  spikes + link-down blips; seed N, default 1); any
//                  diagnostic is a hard failure
//   --congestion   bounded queues + ECN + DCQCN on every topology (lossless
//                  pause mode, so no transfer can fail), and the chaos
//                  injector (under --check) additionally configures the
//                  straggler/jitter knob — the ISSUE 8 robustness mode
//   --tail         repeat each timed op and append p50/p99/p999 tail-latency
//                  columns (existing mean columns keep their exact values;
//                  without the flag the output is byte-identical to before)
//   --json=PATH    write JSON rows to PATH
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/check/rdma_check.h"
#include "src/net/congestion.h"
#include "src/collective/collective.h"
#include "src/device/rdma_device.h"
#include "src/models/model_spec.h"
#include "src/net/fabric.h"
#include "src/net/topology.h"
#include "src/rdma/verbs.h"
#include "src/sim/fault.h"
#include "src/sim/histogram.h"
#include "src/sim/simulator.h"
#include "src/train/ps_training.h"
#include "src/util/logging.h"

namespace rdmadl {
namespace {

struct Flags {
  bool quick = false;
  bool smoke = false;
  bool check = false;
  bool collectives = false;  // All-reduce phase only (BENCH_7 series).
  bool congestion = false;   // Bounded queues + ECN + DCQCN + stragglers.
  bool tail = false;         // Extra reps -> p50/p99/p999 columns.
  uint64_t chaos_seed = 1;
  std::string json_path;
};

// The robustness-mode fabric: bounded queues with early marking, DCQCN
// reaction points, and PFC-style pause on overflow. Pause (not drop) so a
// congested PS step degrades but can never lose a transfer — the sweep's
// completion CHECKs stay meaningful under any seed.
net::CongestionConfig BenchCongestion() {
  net::CongestionConfig cc;
  cc.queue_capacity_bytes = 4ull << 20;
  cc.ecn_threshold_bytes = 512ull << 10;
  cc.pause_on_overflow = true;
  cc.dcqcn = true;
  return cc;
}

struct TopoPoint {
  const char* name;
  net::TopologyConfig config;
};

std::vector<TopoPoint> Topologies() {
  net::TopologyConfig hier;
  hier.hosts_per_rack = 32;
  hier.oversubscription = 4.0;
  return {{"flat", net::TopologyConfig{}}, {"rack32-o4", hier}};
}

// Same rack/spine shape with the ToR/spine reduction engines turned on —
// the fabric Algorithm::kInNetwork (and kAuto, under its size cap) drives.
TopoPoint SwitchReduceTopology() {
  net::TopologyConfig config;
  config.hosts_per_rack = 32;
  config.oversubscription = 4.0;
  config.switch_reduce = true;
  return {"rack32-o4-sr", config};
}

// Latency spikes and short link-down blips: enough chaos to shake event
// ordering, but nothing that fails a transfer,
// so the sweep must still complete deterministically.
void ConfigureChaos(sim::FaultInjector* injector, uint64_t seed, int hosts,
                    bool stragglers) {
  sim::LinkFaultSpec spec;
  spec.spike_probability = 0.05;
  spec.spike_min_ns = 1'000;
  spec.spike_max_ns = 20'000;
  injector->SetDefaultLinkFault(spec);
  // The straggler knob draws per-host dilations immediately, so it must sit
  // at a fixed point of the configuration sequence for seed stability.
  if (stragglers) {
    sim::StragglerSpec straggle;
    straggle.straggler_probability = 0.2;
    straggle.dilation_min = 1.1;
    straggle.dilation_max = 1.4;
    straggle.jitter_max_ns = 2'000;
    injector->ConfigureStragglers(straggle, hosts);
  }
  injector->SetLinkDown(static_cast<int>(seed % hosts), 50'000, 250'000);
  injector->SetLinkDown(static_cast<int>((seed * 7 + 3) % hosts), 300'000, 600'000);
}

struct ScaleRow {
  std::string phase;
  std::string model;
  std::string topology;
  int hosts = 0;
  double virtual_ms = 0;      // Deterministic (stdout + json).
  int64_t total_qps = 0;      // Total QP contexts across all NICs.
  int64_t max_nic_qps = 0;    // Busiest NIC (must be <= cost.max_queue_pairs).
  int64_t pool_lanes = 0;
  int64_t pool_evictions = 0;
  bool has_tail = false;      // --tail: the percentile columns are live.
  double p50_ms = 0;          // Per-op/per-step virtual tail latencies.
  double p99_ms = 0;
  double p999_ms = 0;
  double wall_ms = 0;         // Nondeterministic (stderr + json only).
  double events_per_sec = 0;
};

int64_t TotalQps(rdma::RdmaFabric* rdma, int hosts) {
  int64_t total = 0;
  for (int h = 0; h < hosts; ++h) total += rdma->nic(h)->num_queue_pairs();
  return total;
}

int64_t MaxNicQps(rdma::RdmaFabric* rdma, int hosts) {
  int64_t max = 0;
  for (int h = 0; h < hosts; ++h) {
    max = std::max<int64_t>(max, rdma->nic(h)->num_queue_pairs());
  }
  return max;
}

void PrintRow(const ScaleRow& row) {
  std::printf("%-9s %-12s %-10s %6d | %12.3f |", row.phase.c_str(), row.model.c_str(),
              row.topology.c_str(), row.hosts, row.virtual_ms);
  if (row.has_tail) {
    std::printf(" %9.3f %9.3f %9.3f |", row.p50_ms, row.p99_ms, row.p999_ms);
  }
  std::printf(" %8lld %8lld %10lld\n", static_cast<long long>(row.total_qps),
              static_cast<long long>(row.pool_lanes),
              static_cast<long long>(row.pool_evictions));
  std::fprintf(stderr, "  [%s %s %s %d] wall %.0f ms, %.3g events/s\n", row.phase.c_str(),
               row.model.c_str(), row.topology.c_str(), row.hosts, row.wall_ms,
               row.events_per_sec);
}

// Fails the whole binary if the checker saw anything.
void RequireClean(check::RdmaCheck* checker, const ScaleRow& row) {
  if (checker == nullptr) return;
  const auto& diags = checker->Finalize();
  if (!diags.empty()) {
    std::fprintf(stderr, "RdmaCheck diagnostics at %s/%s/%s/%d hosts:\n%s\n",
                 row.phase.c_str(), row.model.c_str(), row.topology.c_str(), row.hosts,
                 checker->Report().c_str());
    std::exit(1);
  }
}

ScaleRow RunAllReduce(int hosts, const TopoPoint& topo, uint64_t elements,
                      const Flags& flags,
                      collective::Algorithm algorithm = collective::Algorithm::kRing,
                      const char* series = "ring-4MiB") {
  ScaleRow row;
  row.phase = "allreduce";
  row.model = series;
  row.topology = topo.name;
  row.hosts = hosts;

  // Installed (when checking) before any MR or QP exists.
  std::unique_ptr<check::RdmaCheck> checker;
  if (flags.check) checker = std::make_unique<check::RdmaCheck>();

  sim::Simulator simulator;
  net::CostModel cost;
  net::Fabric fabric(&simulator, cost, hosts, topo.config);
  sim::FaultInjector injector(flags.chaos_seed);
  if (flags.check) {
    ConfigureChaos(&injector, flags.chaos_seed, hosts, flags.congestion);
    fabric.SetFaultInjector(&injector);
  }
  rdma::RdmaFabric rdma(&fabric);
  {
    device::DeviceDirectory directory(&rdma);
    collective::CollectiveOptions options;
    options.algorithm = algorithm;
    options.materialize = false;  // Virtual payload: 1000 ranks stay cheap.
    std::vector<int> host_ids(hosts);
    std::iota(host_ids.begin(), host_ids.end(), 0);
    auto group = collective::CollectiveGroup::Create(&directory, host_ids, elements, options);
    CHECK(group.ok()) << group.status();

    bool done = false;
    Status status = Internal("all-reduce never completed");
    const uint64_t events_before = simulator.events_dispatched();
    const int64_t op_start = simulator.Now();
    const auto wall_start = std::chrono::steady_clock::now();
    (*group)->AllReduce(elements, [&](const Status& s) {
      done = true;
      status = s;
    });
    CHECK_OK(simulator.Run());
    const auto wall_end = std::chrono::steady_clock::now();
    CHECK(done);
    CHECK_OK(status);

    row.virtual_ms = simulator.Now() / 1e6;
    row.total_qps = TotalQps(&rdma, hosts);
    row.max_nic_qps = MaxNicQps(&rdma, hosts);
    row.pool_lanes = directory.qp_pool()->num_lanes();
    row.pool_evictions = static_cast<int64_t>(directory.qp_pool()->stats().evictions);
    const double wall_s =
        std::chrono::duration_cast<std::chrono::duration<double>>(wall_end - wall_start)
            .count();
    row.wall_ms = wall_s * 1e3;
    row.events_per_sec =
        wall_s > 0 ? (simulator.events_dispatched() - events_before) / wall_s : 0;

    // Tail mode: repeat the op on the warmed-up group. The mean columns above
    // were already captured from rep 1 alone, so they keep their exact values.
    if (flags.tail) {
      sim::LatencyHistogram tail;
      tail.Record(simulator.Now() - op_start);
      for (int rep = 1; rep < 8; ++rep) {
        const int64_t start = simulator.Now();
        bool rep_done = false;
        Status rep_status = Internal("all-reduce rep never completed");
        (*group)->AllReduce(elements, [&](const Status& s) {
          rep_done = true;
          rep_status = s;
        });
        CHECK_OK(simulator.Run());
        CHECK(rep_done);
        CHECK_OK(rep_status);
        tail.Record(simulator.Now() - start);
      }
      row.has_tail = true;
      row.p50_ms = tail.P50() / 1e6;
      row.p99_ms = tail.P99() / 1e6;
      row.p999_ms = tail.P999() / 1e6;
    }
  }
  // Group and directory are gone: only clean teardown state remains.
  RequireClean(checker.get(), row);
  return row;
}

ScaleRow RunPsStep(int hosts, const TopoPoint& topo, const models::ModelSpec& model,
                   const Flags& flags) {
  ScaleRow row;
  row.phase = "ps-step";
  row.model = model.name;
  row.topology = topo.name;
  row.hosts = hosts;

  std::unique_ptr<check::RdmaCheck> checker;
  if (flags.check) checker = std::make_unique<check::RdmaCheck>();
  {
    train::TrainingConfig config;
    config.model = model;
    config.num_machines = hosts;
    config.batch_size = 32;
    config.topology = topo.config;
    train::TrainingDriver driver(std::move(config));
    Status init = driver.Initialize(/*warmup_steps=*/1);
    CHECK_OK(init);
    sim::FaultInjector injector(flags.chaos_seed);
    if (flags.check) {
      ConfigureChaos(&injector, flags.chaos_seed, hosts, flags.congestion);
      driver.cluster()->fabric()->SetFaultInjector(&injector);
    }

    sim::Simulator* simulator = driver.cluster()->simulator();
    const uint64_t events_before = simulator->events_dispatched();
    const int64_t virtual_before = simulator->Now();
    const auto wall_start = std::chrono::steady_clock::now();
    auto step_ms = driver.MeasureStepTimeMs(/*steps=*/1);
    const auto wall_end = std::chrono::steady_clock::now();
    CHECK(step_ms.ok()) << step_ms.status();

    row.virtual_ms = *step_ms;
    row.total_qps = TotalQps(driver.cluster()->rdma_fabric(), hosts);
    row.max_nic_qps = MaxNicQps(driver.cluster()->rdma_fabric(), hosts);
    row.pool_lanes = driver.cluster()->directory()->qp_pool()->num_lanes();
    row.pool_evictions =
        static_cast<int64_t>(driver.cluster()->directory()->qp_pool()->stats().evictions);
    const double wall_s =
        std::chrono::duration_cast<std::chrono::duration<double>>(wall_end - wall_start)
            .count();
    row.wall_ms = wall_s * 1e3;
    row.events_per_sec =
        wall_s > 0 ? (simulator->events_dispatched() - events_before) / wall_s : 0;
    (void)virtual_before;

    // Tail mode: run more steps and read the driver's per-step histogram
    // (which also holds the warm-up and the timed step above — every
    // completed RunStep of this driver's lifetime feeds the tail).
    if (flags.tail) {
      auto extra = driver.MeasureStepTimeMs(/*steps=*/7);
      CHECK(extra.ok()) << extra.status();
      const sim::LatencyHistogram& tail = driver.step_latencies();
      row.has_tail = true;
      row.p50_ms = tail.P50() / 1e6;
      row.p99_ms = tail.P99() / 1e6;
      row.p999_ms = tail.P999() / 1e6;
    }
  }
  RequireClean(checker.get(), row);
  return row;
}

void Run(const Flags& flags) {
  bench::PrintHeader(
      "Cluster scale — hosts x model x topology (ISSUE 6)",
      "Virtual step/op time and QP-pool footprint far past the paper's 8 hosts.\n"
      "Wall-clock events/sec on stderr; stdout is deterministic.");

  struct PsModel {
    models::ModelSpec model;
    int max_hosts;  // VGG's 2.9s virtual steps get wall-heavy past 128.
  };
  std::vector<int> allreduce_hosts = {32, 64, 128, 256, 512, 1000};
  std::vector<int> ps_hosts = {32, 64, 128, 256};
  std::vector<PsModel> ps_models = {{models::Lstm(), 256}, {models::Vgg16(), 128}};
  if (flags.quick) {
    allreduce_hosts = {32, 128};
    ps_hosts = {32};
    ps_models = {{models::Lstm(), 256}};
  }
  if (flags.smoke) {
    allreduce_hosts = {256};
    ps_hosts = {256};
    ps_models = {{models::Lstm(), 256}};
  }

  std::printf("%-9s %-12s %-10s %6s | %12s |", "phase", "model", "topology", "hosts",
              "virtual ms");
  if (flags.tail) std::printf(" %9s %9s %9s |", "p50 ms", "p99 ms", "p999 ms");
  std::printf(" %8s %8s %10s\n", "QPs", "lanes", "evictions");
  bench::PrintRule();

  // The congestion mode turns the queue/ECN/DCQCN knobs on for every fabric
  // in the sweep; without it the configs are all-zero and the fabric is
  // byte-identical to the pre-congestion one.
  std::vector<TopoPoint> topologies = Topologies();
  TopoPoint sr = SwitchReduceTopology();
  if (flags.congestion) {
    for (TopoPoint& topo : topologies) topo.config.congestion = BenchCongestion();
    sr.config.congestion = BenchCongestion();
  }

  bench::JsonEmitter json;
  std::vector<ScaleRow> rows;
  const uint64_t elements = 1u << 20;  // 4 MiB of floats per rank.
  for (const TopoPoint& topo : topologies) {
    for (int hosts : allreduce_hosts) {
      rows.push_back(RunAllReduce(hosts, topo, elements, flags));
      PrintRow(rows.back());
    }
  }
  // Multi-level schedules on the oversubscribed fabric (ISSUE 7): explicit
  // hierarchical, the kAuto selector (ring at one rack, hierarchical past
  // it), and the in-network stage on the switch-reduce fabric. Skipped in
  // --smoke so that output stays byte-stable for the determinism baseline.
  if (!flags.smoke) {
    const TopoPoint& rack = topologies[1];
    for (int hosts : allreduce_hosts) {
      rows.push_back(RunAllReduce(hosts, rack, elements, flags,
                                  collective::Algorithm::kHierarchical, "hier-4MiB"));
      PrintRow(rows.back());
    }
    for (int hosts : allreduce_hosts) {
      rows.push_back(RunAllReduce(hosts, rack, elements, flags,
                                  collective::Algorithm::kAuto, "auto-4MiB"));
      PrintRow(rows.back());
    }
    for (int hosts : allreduce_hosts) {
      rows.push_back(RunAllReduce(hosts, sr, elements, flags,
                                  collective::Algorithm::kAuto, "innet-4MiB"));
      PrintRow(rows.back());
    }
  }
  bench::PrintRule();
  if (!flags.collectives) {
    for (const TopoPoint& topo : topologies) {
      for (const PsModel& ps : ps_models) {
        for (int hosts : ps_hosts) {
          if (hosts > ps.max_hosts) continue;
          rows.push_back(RunPsStep(hosts, topo, ps.model, flags));
          PrintRow(rows.back());
        }
      }
    }
    bench::PrintRule();
  }

  // The sublinearity acceptance. Per-NIC counts always honor the pool cap,
  // which alone bounds the total at cap * hosts — linear, where eager
  // per-peer lanes would be ~hosts^2 * lanes for the PS all-to-all. From 256
  // hosts on the total must also drop below hosts^2 in absolute terms (small
  // clusters are exempt: 32 colocated-PS machines legitimately hold a
  // constant ~hundred QPs each, which only dips under hosts^2 at scale).
  for (const ScaleRow& row : rows) {
    CHECK_LE(row.max_nic_qps, net::CostModel{}.max_queue_pairs)
        << row.phase << " at " << row.hosts << " hosts overflowed a NIC";
    if (row.hosts < 256) continue;
    const long long quadratic = static_cast<long long>(row.hosts) * row.hosts;
    CHECK_LT(row.total_qps, quadratic)
        << row.phase << " at " << row.hosts << " hosts used " << row.total_qps << " QPs";
  }
  std::printf("Per-NIC QP cap %d respected everywhere; totals sublinear in hosts^2.\n",
              net::CostModel{}.max_queue_pairs);

  // Multi-level acceptance (ISSUE 7): on the oversubscribed rack fabric at
  // 256+ hosts the two-level schedule must beat the flat ring, and kAuto
  // must resolve to exactly the hierarchical schedule (identical virtual
  // time — the selector adds no cost).
  if (!flags.smoke) {
    auto virtual_ms_of = [&rows](const char* series, const char* topology,
                                 int hosts) -> const ScaleRow* {
      for (const ScaleRow& row : rows) {
        if (row.model == series && row.topology == topology && row.hosts == hosts) {
          return &row;
        }
      }
      return nullptr;
    };
    bool checked = false;
    for (const ScaleRow& row : rows) {
      if (row.model != std::string("hier-4MiB") || row.hosts < 256) continue;
      const ScaleRow* ring = virtual_ms_of("ring-4MiB", row.topology.c_str(), row.hosts);
      const ScaleRow* self = virtual_ms_of("auto-4MiB", row.topology.c_str(), row.hosts);
      CHECK(ring != nullptr && self != nullptr);
      CHECK_LT(row.virtual_ms, ring->virtual_ms)
          << "hierarchical did not beat the ring at " << row.hosts << " hosts";
      CHECK_EQ(self->virtual_ms, row.virtual_ms)
          << "kAuto diverged from the hierarchical schedule at " << row.hosts << " hosts";
      checked = true;
    }
    if (checked) {
      std::printf("Hierarchical < ring at 256+ hosts on rack32-o4; kAuto matches it.\n");
    }
  }

  for (const ScaleRow& row : rows) {
    json.BeginRow();
    json.Field("phase", row.phase);
    json.Field("model", row.model);
    json.Field("topology", row.topology);
    json.Field("hosts", static_cast<int64_t>(row.hosts));
    json.Field("virtual_ms", row.virtual_ms);
    json.Field("total_qps", row.total_qps);
    json.Field("max_nic_qps", row.max_nic_qps);
    json.Field("pool_lanes", row.pool_lanes);
    json.Field("pool_evictions", row.pool_evictions);
    if (row.has_tail) {
      json.Field("p50_ms", row.p50_ms);
      json.Field("p99_ms", row.p99_ms);
      json.Field("p999_ms", row.p999_ms);
    }
    json.Field("wall_ms", row.wall_ms);
    json.Field("events_per_sec", row.events_per_sec);
    json.EndRow();
  }
  if (!flags.json_path.empty()) {
    std::FILE* f = std::fopen(flags.json_path.c_str(), "w");
    CHECK(f != nullptr) << "cannot write " << flags.json_path;
    json.PrintTo(f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", flags.json_path.c_str());
  }
}

}  // namespace
}  // namespace rdmadl

int main(int argc, char** argv) {
  rdmadl::Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      flags.quick = true;
    } else if (arg == "--smoke") {
      flags.smoke = true;
    } else if (arg == "--collectives") {
      flags.collectives = true;
    } else if (arg == "--congestion") {
      flags.congestion = true;
    } else if (arg == "--tail") {
      flags.tail = true;
    } else if (arg == "--check") {
      flags.check = true;
    } else if (arg.rfind("--check=", 0) == 0) {
      flags.check = true;
      flags.chaos_seed = std::strtoull(arg.c_str() + 8, nullptr, 10);
    } else if (arg.rfind("--json=", 0) == 0) {
      flags.json_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  rdmadl::Run(flags);
  return 0;
}

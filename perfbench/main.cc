// perfbench: the repository benchmark. Runs one seeded, closed-loop,
// single-process workload through the public entry points of train/,
// collective/, comm/ and rdma/, checks its outputs, and prints its metrics.
// The last line of stdout is the JSON result; everything before it is log.
//
//   perfbench --workload ps_train|allreduce_rack|incast_lanes --seed N
//             --seconds S --trace 0|1
//             [--ops N] [--setups N] [--perturb NAME] [--trace-out PATH]
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1 runs
// the workload twice: untraced for half the window, then with sim::Tracer
// installed over the virtual prefix; it reports the per-layer metrics and
// fails unless both runs produced byte-identical virtual samples. --ops, --setups and
// --perturb exist for the sensitivity self-test (perfbench/selftest.py).
// See perfbench/README.md for what each metric means.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace rdmadl {
namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, on every workload (a layer a workload bypasses
// reads 0 there).
constexpr MetricDef kPerLayer[] = {
    {"sim.events_per_op", "events/op"},
    {"sim.ns_per_event", "ns/event"},
    {"net.transfers_per_op", "count/op"},
    {"net.mtu_segments_per_op", "count/op"},
    {"net.ecn_marks_per_op", "count/op"},
    {"net.overflow_drops_per_op", "count/op"},
    {"net.pause_windows_per_op", "count/op"},
    {"net.peak_backlog_us", "us"},
    {"rdma.writes_per_op", "count/op"},
    {"rdma.doorbells_per_op", "count/op"},
    {"rdma.retransmissions_per_op", "count/op"},
    {"rdma.cnps_per_op", "count/op"},
    {"rdma.rate_decreases_per_op", "count/op"},
    {"rdma.pacing_delay_us_per_op", "us/op"},
    {"rdma.registrations", "count"},
    {"rdma.registration_ms", "ms"},
    {"rdma.total_qps", "count"},
    {"rdma.qp_pool_lanes", "count"},
    {"rdma.qp_pool_evictions", "count"},
    {"comm.engine.coalesced_sends_per_op", "count/op"},
    {"comm.engine.striped_sends_per_op", "count/op"},
    {"comm.engine.stripe_lane_writes_per_op", "count/op"},
    {"comm.zerocopy.static_transfers_per_op", "count/op"},
    {"comm.zerocopy.staged_bytes_per_op", "bytes/op"},
    {"comm.zerocopy.degraded_sends", "count"},
    {"collective.ops_ring", "count"},
    {"collective.ops_hierarchical", "count"},
    {"collective.ops_innetwork", "count"},
    {"collective.chunk_posts_per_op", "count/op"},
    {"collective.bytes_sent_per_op", "bytes/op"},
    {"collective.setup_rpcs", "count"},
    {"collective.create_s", "s"},
    {"collective.tree_ms_per_op", "ms"},
    {"collective.leader_ring_ms_per_op", "ms"},
    {"runtime.nodes_per_step", "count/op"},
    {"runtime.poll_attempts_per_step", "count/op"},
    {"runtime.failed_poll_ratio", "ratio"},
    {"runtime.compute_ms_per_step", "ms"},
    {"runtime.exposed_comm_ms_per_step", "ms"},
    {"train.step_retries", "count"},
    {"train.initialize_s", "s"},
    {"trace.overhead_pct", "%"},
};

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

std::string MetricsJson(const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::string out = "{";
  for (const auto& [def, value] : metrics) {
    if (out.size() > 1) out += ", ";
    out += std::string("\"") + def.name + "\": {\"value\": " + Number(value) + ", \"unit\": \"" +
           def.unit + "\"}";
  }
  return out + "}";
}

uint64_t Digest(const RunResult& r) {
  uint64_t h = Fnv1a(r.virtual_ns.data(), r.virtual_ns.size() * sizeof(int64_t));
  h = Fnv1a(&r.prefix_payload_bytes, sizeof(r.prefix_payload_bytes), h);
  return Fnv1a(&r.prefix_virtual_ns, sizeof(r.prefix_virtual_ns), h);
}

RunResult RunWorkload(const std::string& workload, const RunSpec& spec) {
  if (workload == "ps_train") return RunPsTrain(spec);
  if (workload == "allreduce_rack") return RunAllreduceRack(spec);
  return RunIncastLanes(spec);
}

void PrintLog(const std::string& workload, const RunResult& r) {
  std::printf("physics %s %s\n", workload.c_str(), r.physics.c_str());
  for (const std::string& line : r.what_ran) std::printf("what_ran: %s\n", line.c_str());
  std::printf("virtual_digest %016llx\n", static_cast<unsigned long long>(Digest(r)));
}

int Main(int argc, char** argv) {
  std::string workload;
  RunSpec spec;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      spec.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      spec.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--ops") {
      spec.prefix_ops = std::atoi(value);
    } else if (flag == "--setups") {
      spec.setups = std::atoi(value);
    } else if (flag == "--trace-out") {
      spec.trace_path = value;
    } else if (flag == "--perturb") {
      if (!ParsePerturbation(value, &spec.perturb)) {
        std::fprintf(stderr, "unknown perturbation %s\n", value);
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (workload != "ps_train" && workload != "allreduce_rack" && workload != "incast_lanes") {
    std::fprintf(stderr, "--workload must be ps_train, allreduce_rack or incast_lanes\n");
    return 2;
  }

  RunResult run;
  std::vector<std::pair<MetricDef, double>> metrics;
  bool correct = true;
  if (trace == 0) {
    run = RunWorkload(workload, spec);
    PrintLog(workload, run);
    std::vector<int64_t> sorted = run.virtual_ns;
    std::sort(sorted.begin(), sorted.end());
    const Tail tail = HighestTail(sorted);
    std::printf("tail: virtual_tail_ms is p%g over %zu samples (%lld beyond it)\n", tail.pct,
                sorted.size(), static_cast<long long>(tail.beyond));
    std::vector<double> ns_per_event;
    for (const WallBlock& b : run.blocks) {
      if (b.events > 0) ns_per_event.push_back(b.wall_ns / static_cast<double>(b.events));
    }
    std::sort(ns_per_event.begin(), ns_per_event.end());
    if (!ns_per_event.empty()) {
      std::printf("wall blocks: %zu, min %.6g, p10 %.6g, median %.6g, max %.6g ns/event\n",
                  ns_per_event.size(), ns_per_event.front(), NearestRank(ns_per_event, 10),
                  Median(ns_per_event), ns_per_event.back());
    }
    const double goodput = run.prefix_virtual_ns > 0 ? run.prefix_payload_bytes * 8.0 /
                                                           static_cast<double>(run.prefix_virtual_ns)
                                                     : 0;
    metrics = {
        {{"virtual_p50_ms", "ms"}, NearestRank(sorted, 50) / 1e6},
        {{"virtual_tail_ms", "ms"}, tail.value / 1e6},
        {{"goodput_gbps", "Gbit/s"}, goodput},
        {{"sim_wall_ms_per_op", "ms"}, WallMsPerOp(run.blocks, run.ops)},
        {{"peak_rss_mb", "MiB"}, PeakRssMb()},
        {{"setup_s", "s"}, Median(run.setup_s)},
    };
    std::string layer = "{";
    for (const auto& [name, value] : run.layer) {
      layer += (layer.size() > 1 ? ", \"" : "\"") + name + "\": " + Number(value);
    }
    std::printf("layer %s}\n", layer.c_str());
    correct = tail.beyond >= 10;
  } else {
    RunSpec half = spec;
    half.seconds = spec.seconds / 2;
    half.setups = 1;
    half.trace_path.clear();
    run = RunWorkload(workload, half);
    // The traced run covers the virtual prefix only, which bounds the trace
    // file (incast drops alone emit about 3,500 instants per round).
    half.seconds = 0;
    half.trace = true;
    half.trace_path = spec.trace_path;
    RunResult traced = RunWorkload(workload, half);
    PrintLog(workload, traced);
    if (Digest(traced) != Digest(run) || traced.virtual_ns != run.virtual_ns) {
      run.errors.push_back("traced run's virtual samples differ from the untraced run's");
    }
    run.errors.insert(run.errors.end(), traced.errors.begin(), traced.errors.end());
    run.attempted += traced.attempted;
    run.failed += traced.failed;
    for (const char* key : {"runtime.compute_ms_per_step", "runtime.exposed_comm_ms_per_step",
                            "collective.tree_ms_per_op", "collective.leader_ring_ms_per_op"}) {
      if (traced.layer.count(key) > 0) run.layer[key] = traced.layer[key];
    }
    const double untraced_ms = WallMsPerOp(run.blocks, run.ops);
    run.layer["trace.overhead_pct"] =
        untraced_ms > 0 ? (WallMsPerOp(traced.blocks, traced.ops) / untraced_ms - 1.0) * 100.0
                        : 0;
    for (const MetricDef& def : kPerLayer) {
      auto it = run.layer.find(def.name);
      metrics.push_back({def, it == run.layer.end() ? 0.0 : it->second});
    }
  }
  for (const std::string& error : run.errors) std::printf("error: %s\n", error.c_str());
  correct = correct && run.errors.empty() && run.failed == 0 && !run.virtual_ns.empty();
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(std::max<int64_t>(run.attempted, 1)),
              static_cast<long long>(run.failed), MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace rdmadl

int main(int argc, char** argv) { return rdmadl::perfbench::Main(argc, argv); }

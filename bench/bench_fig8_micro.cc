// Regenerates Figure 8: send/receive micro-benchmark between two servers.
//
// One server holds a tensor of a given size; the other consumes it with a
// lightweight reduce_max operator. We report per-transfer time and effective
// throughput for gRPC.TCP, gRPC.RDMA, RDMA.cp (graph analysis off — sender
// staging copy) and RDMA.zerocp, and the speedups of RDMA.zerocp over each —
// the paper reports 1.7x-61x over gRPC.TCP, 1.3x-14x over gRPC.RDMA and
// 1.2x-1.8x over RDMA.cp, with gRPC.RDMA crashing at the 1 GB point.
//
// Transfer-engine sweeps (ISSUE 5), enabled with --sweep:
//   * lane striping: large-tensor throughput vs QP lane count under a
//     per-QP WQE-engine ceiling (cost.rdma_qp_engine_bytes_per_sec);
//   * small-tensor coalescing: many-small-tensor step time with doorbell
//     batching on vs off;
//   * MR registration cache: dynamic-protocol step time and cache hit rate
//     with the cache on vs the staging baseline.
//
// Flags: --quick (small size set, fewer steps — CI smoke config), --sweep
// (adds the engine sweeps), --json=PATH (machine-readable rows; wall-clock
// timings go only into the JSON/stderr so stdout stays deterministic).
#include <chrono>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/comm/rpc_mechanism.h"
#include "src/comm/zerocopy_mechanism.h"
#include "src/runtime/session.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace {

using graph::Graph;
using graph::Node;
using tensor::TensorShape;

enum class Mech { kGrpcTcp, kGrpcRdma, kRdmaCp, kRdmaZerocp };

struct MeasureSpec {
  uint64_t bytes = 0;
  int num_tensors = 1;  // Parallel same-size edges (coalescing sweep).
  int steps = 5;
  comm::ZeroCopyOptions zerocopy;        // For the zero-copy mechanisms.
  net::CostModel cost;                   // Cluster-wide cost model.
  // Extra measure steps before the timed window whose stats are excluded
  // (beyond the single allocation-tracing warm-up step).
  int extra_warmup_steps = 0;
};

struct MeasureOut {
  double us_per_step = -1.0;  // Virtual time; negative on structured failure.
  comm::ZeroCopyStats stats;         // Totals at the end of the run.
  comm::ZeroCopyStats warmup_stats;  // Totals when the timed window began.
  bool ok() const { return us_per_step >= 0; }
};

// Runs |spec.steps| steps of a 2-host PS-shaped transfer and reports the mean
// virtual per-step time plus the mechanism's counters.
MeasureOut MeasureTransfer(Mech mech, const MeasureSpec& spec) {
  runtime::ClusterOptions cluster_options;
  cluster_options.num_machines = 2;
  cluster_options.mode = ops::ComputeMode::kSimulated;
  cluster_options.cost = spec.cost;
  cluster_options.process_defaults.rdma_arena_bytes = 16ull << 30;
  runtime::Cluster cluster(cluster_options);
  CHECK_OK(cluster.AddProcess("ps:0", 0).status());
  CHECK_OK(cluster.AddProcess("worker:0", 1).status());

  Graph graph;
  for (int t = 0; t < spec.num_tensors; ++t) {
    const std::string name = "payload" + std::to_string(t);
    Node* src = *graph.AddNode(name, "Variable", std::vector<Node*>{});
    src->SetAttr("shape", TensorShape{static_cast<int64_t>(spec.bytes / 4)});
    src->set_device("ps:0");
    Node* consume = *graph.AddNode("reduce_max" + std::to_string(t), "ReduceMax", {src});
    consume->set_device("worker:0");
  }

  std::unique_ptr<runtime::TransferMechanism> mechanism;
  comm::ZeroCopyRdmaMechanism* zerocp = nullptr;
  switch (mech) {
    case Mech::kGrpcTcp:
      mechanism = std::make_unique<comm::RpcMechanism>(&cluster, net::Plane::kTcp);
      break;
    case Mech::kGrpcRdma:
      mechanism = std::make_unique<comm::RpcMechanism>(&cluster, net::Plane::kRdma);
      break;
    case Mech::kRdmaCp: {
      comm::ZeroCopyOptions options = spec.zerocopy;
      options.graph_analysis = false;
      auto z = std::make_unique<comm::ZeroCopyRdmaMechanism>(&cluster, options);
      zerocp = z.get();
      mechanism = std::move(z);
      break;
    }
    case Mech::kRdmaZerocp: {
      auto z = std::make_unique<comm::ZeroCopyRdmaMechanism>(&cluster, spec.zerocopy);
      zerocp = z.get();
      mechanism = std::move(z);
      break;
    }
  }

  runtime::DistributedSession session(&cluster, mechanism.get(), &graph,
                                      runtime::SessionOptions{});
  CHECK_OK(session.Setup());
  MeasureOut out;
  // Warm-up (allocation-tracing step for the analysis-enabled mechanism).
  if (!session.RunStep().ok()) return out;
  for (int i = 0; i < spec.extra_warmup_steps; ++i) {
    if (!session.RunStep().ok()) return out;
  }
  if (zerocp != nullptr) out.warmup_stats = zerocp->stats();
  const int64_t start = cluster.simulator()->Now();
  for (int i = 0; i < spec.steps; ++i) {
    if (!session.RunStep().ok()) return out;
  }
  out.us_per_step =
      static_cast<double>(cluster.simulator()->Now() - start) / spec.steps / 1e3;
  if (zerocp != nullptr) out.stats = zerocp->stats();
  return out;
}

double ThroughputGBps(uint64_t bytes, double us) {
  return us > 0 ? static_cast<double>(bytes) / (us * 1e3) : 0.0;
}

// ---------------------------------------------------------------------------
// The Figure 8 table.

void RunFig8(bool quick, bench::JsonEmitter* json) {
  const char* kMechNames[] = {"gRPC.TCP", "gRPC.RDMA", "RDMA.cp", "RDMA.zerocp"};
  bench::PrintHeader("Figure 8 — Tensor transfer micro-benchmark (2 servers)",
                     "Per-transfer latency (us) and speedup of RDMA.zerocp over each "
                     "alternative, vs message size.");
  std::printf("%-9s | %12s %12s %12s %12s | %8s %8s %8s\n", "size", "gRPC.TCP", "gRPC.RDMA",
              "RDMA.cp", "RDMA.zerocp", "x TCP", "x gRPC-R", "x cp");
  bench::PrintRule();
  const uint64_t kFull[] = {4ull << 10,  64ull << 10,  512ull << 10, 4ull << 20,
                            32ull << 20, 256ull << 20, 1ull << 30};
  const uint64_t kQuick[] = {4ull << 10, 512ull << 10, 8ull << 20};
  const uint64_t* sizes = quick ? kQuick : kFull;
  const int num_sizes = quick ? 3 : 7;
  for (int s = 0; s < num_sizes; ++s) {
    const uint64_t bytes = sizes[s];
    double us[4];
    for (int m = 0; m < 4; ++m) {
      MeasureSpec spec;
      spec.bytes = bytes;
      spec.steps = quick ? 3 : 5;
      us[m] = MeasureTransfer(static_cast<Mech>(m), spec).us_per_step;
      if (json != nullptr) {
        json->BeginRow();
        json->Field("section", std::string("fig8"));
        json->Field("mechanism", std::string(kMechNames[m]));
        json->Field("bytes", static_cast<int64_t>(bytes));
        json->Field("virtual_us_per_step", us[m]);
        json->Field("virtual_gbps", ThroughputGBps(bytes, us[m]));
        json->EndRow();
      }
    }
    auto cell = [](double v) {
      static char buf[4][32];
      static int idx = 0;
      char* out = buf[idx = (idx + 1) % 4];
      if (v < 0) {
        std::snprintf(out, 32, "%12s", "CRASH");
      } else {
        std::snprintf(out, 32, "%12.1f", v);
      }
      return out;
    };
    auto ratio = [&](int m) {
      static char buf[3][16];
      static int idx = 0;
      char* out = buf[idx = (idx + 1) % 3];
      if (us[m] < 0) {
        std::snprintf(out, 16, "%8s", "-");
      } else {
        std::snprintf(out, 16, "%7.1fx", us[m] / us[3]);
      }
      return out;
    };
    std::printf("%-9s | %s %s %s %s | %s %s %s\n", HumanBytes(bytes).c_str(), cell(us[0]),
                cell(us[1]), cell(us[2]), cell(us[3]), ratio(0), ratio(1), ratio(2));
  }
  bench::PrintRule();
  std::printf("Paper: RDMA.zerocp is 1.7x-61x over gRPC.TCP, 1.3x-14x over gRPC.RDMA,\n"
              "1.2x-1.8x over RDMA.cp; gRPC.RDMA crashes at 1 GB (missing point).\n");
}

// ---------------------------------------------------------------------------
// Sweep 1: multi-QP lane striping. A per-QP WQE-engine ceiling makes the
// single-QP initiation cost visible; striping across lanes overlaps it.

void SweepLanes(bool quick, bench::JsonEmitter* json) {
  bench::PrintHeader("Transfer engine — QP lane striping",
                     "Large-tensor RDMA.zerocp throughput vs stripe lanes, with a 12 GB/s "
                     "per-QP WQE-engine ceiling (virtual time).");
  std::printf("%-9s | %10s %10s %10s | %s\n", "size", "1 lane", "2 lanes", "4 lanes",
              "4-lane speedup");
  bench::PrintRule();
  const uint64_t kFull[] = {8ull << 20, 32ull << 20, 128ull << 20};
  const uint64_t kQuick[] = {8ull << 20};
  const uint64_t* sizes = quick ? kQuick : kFull;
  const int num_sizes = quick ? 1 : 3;
  for (int s = 0; s < num_sizes; ++s) {
    const uint64_t bytes = sizes[s];
    double gbps[3] = {0, 0, 0};
    const int lane_counts[3] = {1, 2, 4};
    for (int l = 0; l < 3; ++l) {
      MeasureSpec spec;
      spec.bytes = bytes;
      spec.steps = quick ? 2 : 4;
      spec.cost.rdma_qp_engine_bytes_per_sec = 12e9;
      spec.zerocopy.engine.enable_striping = lane_counts[l] > 1;
      spec.zerocopy.engine.stripe_lanes = lane_counts[l];
      MeasureOut out = MeasureTransfer(Mech::kRdmaZerocp, spec);
      gbps[l] = ThroughputGBps(bytes, out.us_per_step);
      if (json != nullptr) {
        json->BeginRow();
        json->Field("section", std::string("lanes"));
        json->Field("bytes", static_cast<int64_t>(bytes));
        json->Field("lanes", static_cast<int64_t>(lane_counts[l]));
        json->Field("virtual_us_per_step", out.us_per_step);
        json->Field("virtual_gbps", gbps[l]);
        json->Field("striped_sends", out.stats.striped_sends);
        json->EndRow();
      }
    }
    std::printf("%-9s | %8.2f GB/s %6.2f GB/s %6.2f GB/s | %13.2fx\n",
                HumanBytes(bytes).c_str(), gbps[0], gbps[1], gbps[2],
                gbps[0] > 0 ? gbps[2] / gbps[0] : 0.0);
  }
  bench::PrintRule();
}

// ---------------------------------------------------------------------------
// Sweep 2: small-tensor coalescing. Many small same-step tensors to one peer
// either each pay the per-message posting cost or share one doorbell chain.

void SweepCoalescing(bool quick, bench::JsonEmitter* json) {
  bench::PrintHeader("Transfer engine — small-tensor coalescing",
                     "Step time for N small tensors ps->worker, doorbell batching "
                     "off vs on (virtual time).");
  std::printf("%-16s | %12s %12s | %s\n", "tensors x size", "coalesce off", "coalesce on",
              "speedup");
  bench::PrintRule();
  struct Shape {
    int tensors;
    uint64_t bytes;
  };
  const Shape kFull[] = {{16, 1024}, {32, 4096}, {64, 4096}};
  const Shape kQuick[] = {{32, 4096}};
  const Shape* shapes = quick ? kQuick : kFull;
  const int num_shapes = quick ? 1 : 3;
  for (int s = 0; s < num_shapes; ++s) {
    double us[2] = {0, 0};
    int64_t batches = 0;
    for (int on = 0; on < 2; ++on) {
      MeasureSpec spec;
      spec.bytes = shapes[s].bytes;
      spec.num_tensors = shapes[s].tensors;
      spec.steps = quick ? 3 : 5;
      spec.zerocopy.engine.enable_coalescing = on == 1;
      MeasureOut out = MeasureTransfer(Mech::kRdmaZerocp, spec);
      us[on] = out.us_per_step;
      if (on == 1) batches = out.stats.coalesced_sends;
      if (json != nullptr) {
        json->BeginRow();
        json->Field("section", std::string("coalescing"));
        json->Field("tensors", static_cast<int64_t>(shapes[s].tensors));
        json->Field("bytes", static_cast<int64_t>(shapes[s].bytes));
        json->Field("coalescing", static_cast<int64_t>(on));
        json->Field("virtual_us_per_step", us[on]);
        json->Field("coalesced_sends", out.stats.coalesced_sends);
        json->EndRow();
      }
    }
    char label[32];
    std::snprintf(label, sizeof(label), "%3d x %s", shapes[s].tensors,
                  HumanBytes(shapes[s].bytes).c_str());
    std::printf("%-16s | %10.1fus %10.1fus | %6.2fx  (%lld coalesced sends)\n", label, us[0],
                us[1], us[1] > 0 ? us[0] / us[1] : 0.0, static_cast<long long>(batches));
  }
  bench::PrintRule();
}

// ---------------------------------------------------------------------------
// Sweep 3: MR registration cache. Dynamic-protocol sends of unregistered
// buffers either stage through the arena every step (RDMA.cp baseline) or
// register once through the cache and go zero-copy from then on.

void SweepMrCache(bool quick, bench::JsonEmitter* json) {
  bench::PrintHeader("Transfer engine — MR registration cache",
                     "Dynamic-protocol step time, staging baseline vs extent cache; "
                     "hit rate counted after step 1 (virtual time).");
  std::printf("%-9s | %12s %12s | %8s | %s\n", "size", "staging", "mr cache", "speedup",
              "hit rate (steps 2+)");
  bench::PrintRule();
  const uint64_t kFull[] = {256ull << 10, 1ull << 20, 8ull << 20};
  const uint64_t kQuick[] = {1ull << 20};
  const uint64_t* sizes = quick ? kQuick : kFull;
  const int num_sizes = quick ? 1 : 3;
  for (int s = 0; s < num_sizes; ++s) {
    const uint64_t bytes = sizes[s];
    double us[2] = {0, 0};
    double hit_rate = 0.0;
    for (int on = 0; on < 2; ++on) {
      MeasureSpec spec;
      spec.bytes = bytes;
      spec.steps = quick ? 8 : 15;
      spec.extra_warmup_steps = 1;  // Hit rate is measured from step 2 on.
      spec.zerocopy.force_dynamic = true;
      spec.zerocopy.use_mr_cache = on == 1;
      MeasureOut out = MeasureTransfer(Mech::kRdmaCp, spec);
      us[on] = out.us_per_step;
      if (on == 1) {
        const int64_t hits = out.stats.mr_cache_hits - out.warmup_stats.mr_cache_hits;
        const int64_t misses = out.stats.mr_cache_misses - out.warmup_stats.mr_cache_misses;
        hit_rate = hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
      }
      if (json != nullptr) {
        json->BeginRow();
        json->Field("section", std::string("mr_cache"));
        json->Field("bytes", static_cast<int64_t>(bytes));
        json->Field("mr_cache", static_cast<int64_t>(on));
        json->Field("virtual_us_per_step", us[on]);
        json->Field("mr_cache_hits", out.stats.mr_cache_hits);
        json->Field("mr_cache_misses", out.stats.mr_cache_misses);
        if (on == 1) json->Field("hit_rate_after_step1", hit_rate);
        json->EndRow();
      }
    }
    std::printf("%-9s | %10.1fus %10.1fus | %7.2fx | %17.1f%%\n", HumanBytes(bytes).c_str(),
                us[0], us[1], us[1] > 0 ? us[0] / us[1] : 0.0, hit_rate * 100.0);
  }
  bench::PrintRule();
}

void Run(bool quick, bool sweep, const std::string& json_path) {
  bench::JsonEmitter json;
  bench::JsonEmitter* emit = json_path.empty() ? nullptr : &json;
  const auto wall_start = std::chrono::steady_clock::now();

  RunFig8(quick, emit);
  if (sweep) {
    SweepLanes(quick, emit);
    SweepCoalescing(quick, emit);
    SweepMrCache(quick, emit);
  }

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall_start)
                             .count();
  // Wall-clock goes to stderr and the JSON only: stdout must be byte-stable
  // across runs (the ctest entry bench_fig8_micro_twice diffs it).
  std::fprintf(stderr, "wall-clock: %.0f ms\n", wall_ms);
  if (emit != nullptr) {
    json.BeginRow();
    json.Field("section", std::string("meta"));
    json.Field("quick", static_cast<int64_t>(quick ? 1 : 0));
    json.Field("sweep", static_cast<int64_t>(sweep ? 1 : 0));
    json.Field("wall_ms", wall_ms);
    json.EndRow();
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    CHECK(f != nullptr) << "cannot open " << json_path;
    json.PrintTo(f);
    std::fclose(f);
  }
}

}  // namespace
}  // namespace rdmadl

int main(int argc, char** argv) {
  bool quick = false;
  bool sweep = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--sweep") == 0) {
      sweep = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "unknown flag %s (expected --quick, --sweep, --json=PATH)\n",
                   argv[i]);
      return 2;
    }
  }
  rdmadl::Run(quick, sweep, json_path);
  return 0;
}

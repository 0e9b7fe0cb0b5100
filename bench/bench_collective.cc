// Collective all-reduce sweep: machines x tensor size x mechanism.
//
// Compares the zero-copy RDMA ring all-reduce (static ring buffers, one-sided
// writes, §3.2 placement) against a gRPC-over-TCP staging baseline
// (serialize + transfer + deserialize + staging memcpy per hop), and the ring
// algorithm against a naive gather-at-root reduction. Finishes with an
// end-to-end PS-vs-all-reduce training comparison on FCN-5.
//
// All numbers are virtual-time measurements from the simulated fabric. The
// transport sweep ends in an acceptance line; the binary exits 1 when it
// reads FAIL.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/collective/collective.h"
#include "src/models/model_spec.h"
#include "src/net/fabric.h"
#include "src/rdma/verbs.h"
#include "src/sim/simulator.h"

namespace rdmadl {
namespace bench {
namespace {

struct World {
  explicit World(int num_hosts)
      : fabric(&simulator, cost, num_hosts), rdma(&fabric), directory(&rdma) {}

  sim::Simulator simulator;
  net::CostModel cost;
  net::Fabric fabric;
  rdma::RdmaFabric rdma;
  device::DeviceDirectory directory;
};

struct OpResult {
  double ms = 0;
  double egress_utilization = 0;  // Mean over hosts, busy / elapsed.
};

// One timed all-reduce of |bytes| on a fresh |n|-host group.
OpResult TimeAllReduce(int n, uint64_t bytes, collective::CollectiveOptions options) {
  World world(n);
  const uint64_t elements = bytes / sizeof(float);
  options.materialize = false;  // Timing only: virtual payload buffers.
  std::vector<int> hosts;
  for (int i = 0; i < n; ++i) hosts.push_back(i);
  auto group_or = collective::CollectiveGroup::Create(&world.directory, hosts,
                                                      elements, options);
  CHECK_OK(group_or.status());
  auto group = std::move(group_or).value();

  // Warm-up op performs the lazy address exchange; not timed.
  Status warm = Internal("");
  group->AllReduce(elements, [&](const Status& s) { warm = s; });
  CHECK_OK(world.simulator.Run());
  CHECK_OK(warm);

  std::vector<int64_t> busy_before(n);
  for (int i = 0; i < n; ++i) {
    busy_before[i] = world.fabric.host(i)->egress().busy_ns_total();
  }
  const int64_t start = world.simulator.Now();
  Status done = Internal("");
  group->AllReduce(elements, [&](const Status& s) { done = s; });
  CHECK_OK(world.simulator.Run());
  CHECK_OK(done);
  const int64_t elapsed = world.simulator.Now() - start;

  OpResult result;
  result.ms = static_cast<double>(elapsed) / 1e6;
  double util = 0;
  for (int i = 0; i < n; ++i) {
    util += static_cast<double>(world.fabric.host(i)->egress().busy_ns_total() -
                                busy_before[i]) /
            elapsed;
  }
  result.egress_utilization = util / n;
  return result;
}

// Returns the acceptance verdict.
bool SweepTransports() {
  PrintHeader("Collective all-reduce: ring over zero-copy RDMA vs TCP staging",
              "Virtual ms per all-reduce (mean egress link utilization in parens).");
  std::printf("%-8s %10s | %12s %18s | %8s\n", "hosts", "tensor", "gRPC-TCP",
              "RDMA zero-copy", "speedup");
  PrintRule();
  const std::vector<uint64_t> sizes = {64ull << 10, 1ull << 20, 16ull << 20,
                                       128ull << 20};
  bool acceptance = true;
  for (int n : {2, 4, 8}) {
    for (uint64_t bytes : sizes) {
      collective::CollectiveOptions tcp;
      tcp.transport = collective::Transport::kTcpStaging;
      collective::CollectiveOptions zc;
      zc.transport = collective::Transport::kRdmaZeroCopy;
      const OpResult staged = TimeAllReduce(n, bytes, tcp);
      const OpResult ring = TimeAllReduce(n, bytes, zc);
      std::printf("%-8d %8.2fMB | %8.3f (%.2f) %12.3f (%.2f) | %7.1fx\n", n,
                  static_cast<double>(bytes) / (1 << 20), staged.ms,
                  staged.egress_utilization, ring.ms, ring.egress_utilization,
                  staged.ms / ring.ms);
      if (n == 8 && bytes >= (1ull << 20) && ring.ms >= staged.ms) {
        acceptance = false;
      }
    }
  }
  PrintRule();
  std::printf("acceptance (zero-copy ring < staging at >=1MB on 8 hosts): %s\n",
              acceptance ? "PASS" : "FAIL");
  return acceptance;
}

void SweepAlgorithms() {
  PrintHeader("Ablation: ring vs naive gather-at-root (zero-copy RDMA, 8 hosts)",
              "The ring keeps every link busy; the naive reduction serializes "
              "on the root's ingress and CPU.");
  std::printf("%10s | %10s %12s | %8s\n", "tensor", "naive", "ring", "speedup");
  PrintRule();
  for (uint64_t bytes : {1ull << 20, 16ull << 20, 128ull << 20}) {
    collective::CollectiveOptions naive;
    naive.algorithm = collective::Algorithm::kNaiveGather;
    collective::CollectiveOptions ring;
    ring.algorithm = collective::Algorithm::kRing;
    const OpResult gather = TimeAllReduce(8, bytes, naive);
    const OpResult ringed = TimeAllReduce(8, bytes, ring);
    std::printf("%8.2fMB | %10.3f %12.3f | %7.1fx\n",
                static_cast<double>(bytes) / (1 << 20), gather.ms, ringed.ms,
                gather.ms / ringed.ms);
  }
}

void EndToEnd(bool tail) {
  PrintHeader("End-to-end: PS training vs all-reduce training (FCN-5)",
              "Mean virtual step time in ms; all-reduce drops the PS processes "
              "and sums gradients with the ring collective.");
  std::printf("%-8s | %14s %14s", "machines", "PS (zero-copy)", "all-reduce");
  if (tail) std::printf(" | %9s %9s %9s", "PS p50", "PS p99", "PS p999");
  std::printf("\n");
  PrintRule();
  // Tail mode runs enough steps for the per-step histogram to have a tail
  // worth reading; the default keeps the historical 2+3-step measurement so
  // its output stays byte-identical.
  const int steps = tail ? 16 : 3;
  for (int machines : {2, 4}) {
    train::TrainingConfig ps;
    ps.model = models::Fcn5();
    ps.num_machines = machines;
    ps.batch_size = 8;
    ps.mechanism = train::MechanismKind::kRdmaZeroCopy;
    train::TrainingConfig ar = ps;
    ar.mode = train::TrainingMode::kAllReduce;
    const StepResult ps_ms = MeasureConfig(ps, /*warmup=*/2, steps);
    const StepResult ar_ms = MeasureConfig(ar, /*warmup=*/2, steps);
    CHECK(ps_ms.ok()) << ps_ms.error;
    CHECK(ar_ms.ok()) << ar_ms.error;
    std::printf("%-8d | %14.2f %14.2f", machines, ps_ms.step_ms, ar_ms.step_ms);
    if (tail) std::printf(" | %9.2f %9.2f %9.2f", ps_ms.p50_ms, ps_ms.p99_ms, ps_ms.p999_ms);
    std::printf("\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace rdmadl

int main(int argc, char** argv) {
  bool tail = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--tail") {
      tail = true;
    } else {
      std::fprintf(stderr, "unknown flag %s (expected --tail)\n", argv[i]);
      return 2;
    }
  }
  const bool acceptance = rdmadl::bench::SweepTransports();
  rdmadl::bench::SweepAlgorithms();
  rdmadl::bench::EndToEnd(tail);
  return acceptance ? 0 : 1;
}

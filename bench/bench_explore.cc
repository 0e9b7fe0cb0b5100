// Schedule-space exploration report (ISSUE 9).
//
// Two tables quantify the model checker itself rather than the stack under
// test:
//
//   * State reduction: the same fixed schedule budget with and without the
//     happens-before partial-order reduction, on a workload whose transfers
//     are provably independent (disjoint links, disjoint hosts). The
//     interesting number is the fraction of naive tie-branches the reduction
//     discards — the acceptance bar is >= 50% on this workload — and the
//     strictly smaller frontier the pruned search enqueues.
//
//   * Mutation detection: every seeded protocol mutation (src/check/
//     mutation.h) run under the explorer until its first failing schedule,
//     reporting schedules-to-detection, the failure class, and the length of
//     the delta-debugged reproducer. This is the self-validation loop: a
//     checker that cannot re-find a planted bug within a small budget is not
//     earning its keep.
//
// Everything printed to stdout derives from virtual time and deterministic
// counters, so two runs emit byte-identical reports (the ctest entry
// bench_explore_twice diffs them). Wall-clock throughput (schedules/sec) is real time
// and goes to stderr only.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/check/explore.h"
#include "src/check/mutation.h"
#include "src/check/rdma_check.h"
#include "src/collective/collective.h"
#include "src/comm/transfer_engine.h"
#include "src/device/rdma_device.h"
#include "src/net/fabric.h"
#include "src/sim/explore.h"
#include "src/sim/fault.h"
#include "src/util/strings.h"

namespace rdmadl {
namespace {

// A cluster built on the replay's externally-owned simulator; mirrors the
// harness in tests/explore_test.cc.
struct ExploreWorld {
  ExploreWorld(sim::Simulator& simulator, int num_hosts, const net::CostModel& cost_model = {})
      : cost(cost_model), fabric(&simulator, cost, num_hosts), rdma(&fabric), directory(&rdma) {}

  std::unique_ptr<device::RdmaDevice> MakeDevice(int host) {
    auto dev = device::RdmaDevice::Create(&directory, /*num_cqs=*/2, /*num_qps_per_peer=*/4,
                                          Endpoint{host, 7000});
    CHECK(dev.ok()) << dev.status();
    return std::move(dev).value();
  }

  net::CostModel cost;
  net::Fabric fabric;
  rdma::RdmaFabric rdma;
  device::DeviceDirectory directory;
};

struct FlagPoller {
  sim::Simulator* simulator = nullptr;
  const uint8_t* flag = nullptr;
  int host = -1;
  bool trusted = false;

  static void Schedule(std::shared_ptr<FlagPoller> self, int64_t delay_ns) {
    sim::Simulator* simulator = self->simulator;
    simulator->ScheduleAfterJittered(delay_ns, [self = std::move(self)] {
      if (self->trusted) return;
      if (*self->flag != 0) {
        check::OnFlagTrusted(self->host, self->flag, self->simulator->Now());
        self->trusted = true;
        return;
      }
      check::OnFlagPolled(self->host, self->flag, self->simulator->Now());
      Schedule(self, 200);
    });
  }
};

// Two 64 KB writes over disjoint links into disjoint hosts: every tie between
// their events commutes, the ideal showcase for the reduction.
check::WorkloadBody DisjointWritesBody() {
  return [](sim::Simulator& s) -> Status {
    ExploreWorld world(s, 4);
    auto dev0 = world.MakeDevice(0);
    auto dev1 = world.MakeDevice(1);
    auto dev2 = world.MakeDevice(2);
    auto dev3 = world.MakeDevice(3);
    constexpr uint64_t kBytes = 64 << 10;
    auto src_a = dev0->AllocateMemRegion(kBytes);
    auto dst_a = dev1->AllocateMemRegion(kBytes);
    auto src_b = dev2->AllocateMemRegion(kBytes);
    auto dst_b = dev3->AllocateMemRegion(kBytes);
    CHECK(src_a.ok() && dst_a.ok() && src_b.ok() && dst_b.ok());
    auto chan_a = dev0->GetChannel(dev1->endpoint(), 0);
    auto chan_b = dev2->GetChannel(dev3->endpoint(), 0);
    CHECK(chan_a.ok() && chan_b.ok());
    auto done = std::make_shared<int>(0);
    auto failed = std::make_shared<Status>(OkStatus());
    auto on_done = [done, failed](const Status& status) {
      if (!status.ok() && failed->ok()) *failed = status;
      ++*done;
    };
    (*chan_a)->Memcpy(src_a->data(), src_a->lkey(), dst_a->Remote().addr, dst_a->rkey(), kBytes,
                      device::Direction::kLocalToRemote, on_done);
    (*chan_b)->Memcpy(src_b->data(), src_b->lkey(), dst_b->Remote().addr, dst_b->rkey(), kBytes,
                      device::Direction::kLocalToRemote, on_done);
    Status run = s.RunUntilPredicate([done] { return *done == 2; });
    if (!run.ok()) return run;
    return *failed;
  };
}

// Striped 1 MB write with the first wire segment force-dropped: the hit
// stripe redelivers a transport-retry backoff later, opening the torn-read
// window the kFlagBeforeLastStripe mutation walks into.
check::WorkloadBody StripedFlagBody() {
  return [](sim::Simulator& s) -> Status {
    net::CostModel cost;
    cost.rdma_bandwidth_bytes_per_sec = 100e9;
    cost.rdma_qp_engine_bytes_per_sec = 50e9;  // Finite rate: enables striping.
    sim::FaultInjector injector(/*seed=*/1);
    sim::LinkFaultSpec spec;
    spec.drop_first_n = 1;
    injector.SetLinkFault(0, 1, spec);

    ExploreWorld world(s, 2, cost);
    world.fabric.SetFaultInjector(&injector);
    auto src_dev = world.MakeDevice(0);
    auto dst_dev = world.MakeDevice(1);
    constexpr uint64_t kBytes = 1 << 20;
    auto src = src_dev->AllocateMemRegion(kBytes);
    auto dst = dst_dev->AllocateMemRegion(kBytes);
    auto src_flag = src_dev->AllocateMemRegion(1);
    auto dst_flag = dst_dev->AllocateMemRegion(1);
    CHECK(src.ok() && dst.ok() && src_flag.ok() && dst_flag.ok());
    std::memset(src->data(), 0x5a, kBytes);
    src_flag->data()[0] = 1;
    dst_flag->data()[0] = 0;

    comm::TransferEngineOptions engine_options;
    engine_options.stripe_threshold_bytes = 256 << 10;
    comm::TransferEngine engine(src_dev.get(), engine_options);

    check::OnFlagLocation(1, dst_flag->data(), "bench.striped");
    check::OnFlagGuards(1, dst_flag->data(), dst->data(), kBytes);

    auto poller = std::make_shared<FlagPoller>();
    poller->simulator = &s;
    poller->flag = dst_flag->data();
    poller->host = 1;
    FlagPoller::Schedule(poller, 200);

    auto done = std::make_shared<bool>(false);
    auto result = std::make_shared<Status>(OkStatus());
    comm::TransferEngine::WriteDesc payload{src->data(), src->lkey(), dst->Remote().addr,
                                            dst->rkey(), kBytes, true};
    comm::TransferEngine::WriteDesc flag{src_flag->data(), src_flag->lkey(),
                                         dst_flag->Remote().addr, dst_flag->rkey(), 1, true};
    // Lane 1: lane 0 owns the dropped stripe; a flag queued there would
    // serialize behind the retry and hide the bug.
    engine.WriteWithFlag(dst_dev->endpoint(), payload, flag, /*lane_hint=*/1,
                         [done, result](const Status& status) {
                           *done = true;
                           if (!status.ok()) *result = status;
                         });
    Status run = s.RunUntilPredicate([done, poller] { return *done && poller->trusted; });
    if (!run.ok()) return run;
    return *result;
  };
}

// Direct write under a seeded per-segment drop probability, for the
// kRetryKeepsCursor mutation (visible the moment any mid-transfer retry
// redelivers).
check::WorkloadBody DroppyDirectWriteBody(uint64_t seed) {
  return [seed](sim::Simulator& s) -> Status {
    sim::FaultInjector injector(seed);
    sim::LinkFaultSpec spec;
    spec.drop_probability = 0.05;
    injector.SetLinkFault(0, 1, spec);

    ExploreWorld world(s, 2);
    world.fabric.SetFaultInjector(&injector);
    auto src_dev = world.MakeDevice(0);
    auto dst_dev = world.MakeDevice(1);
    constexpr uint64_t kBytes = 256 << 10;
    auto src = src_dev->AllocateMemRegion(kBytes);
    auto dst = dst_dev->AllocateMemRegion(kBytes);
    CHECK(src.ok() && dst.ok());
    auto chan = src_dev->GetChannel(dst_dev->endpoint(), 0);
    CHECK(chan.ok());
    auto done = std::make_shared<bool>(false);
    (*chan)->Memcpy(src->data(), src->lkey(), dst->Remote().addr, dst->rkey(), kBytes,
                    device::Direction::kLocalToRemote, [done](const Status&) { *done = true; });
    return s.RunUntilPredicate([done] { return *done; });
  };
}

// Two-rank ring all-reduce for the flag-protocol mutations.
check::WorkloadBody SmallAllReduceBody(uint64_t count) {
  return [count](sim::Simulator& s) -> Status {
    ExploreWorld world(s, 2);
    collective::CollectiveOptions options;
    options.pipeline_depth = 2;
    auto group = collective::CollectiveGroup::Create(&world.directory, {0, 1}, count, options);
    if (!group.ok()) return group.status();
    for (int r = 0; r < 2; ++r) {
      float* data = (*group)->data(r);
      for (uint64_t i = 0; i < count; ++i) data[i] = static_cast<float>(r + 1);
    }
    auto done = std::make_shared<bool>(false);
    auto result = std::make_shared<Status>(OkStatus());
    (*group)->AllReduce(count, [done, result](const Status& status) {
      *done = true;
      *result = status;
    });
    Status run = s.RunUntilPredicate([done] { return *done; }, /*max_events=*/400'000);
    if (!run.ok()) return run;
    return *result;
  };
}

double WallRate(const sim::ExploreStats& stats) { return stats.schedules_per_sec; }

void ReportStateReduction(double* total_rate, int* rate_samples) {
  bench::PrintHeader("Partial-order reduction: pruned vs naive branch set",
                     "Disjoint-transfer workload, fixed budget of 24 schedules; the reduction\n"
                     "must discard >= 50% of the naive tie-branches (acceptance bar).");
  sim::ExploreOptions options;
  options.name = "bench-por";
  options.max_schedules = 24;
  options.jitter_schedules = 0;
  options.minimize = false;

  sim::Explorer with_por(options);
  sim::ExploreResult reduced = with_por.Explore(check::CheckedWorkload(DisjointWritesBody()));
  CHECK(!reduced.failure_found) << reduced.Summary();

  options.use_por = false;
  sim::Explorer naive(options);
  sim::ExploreResult full = naive.Explore(check::CheckedWorkload(DisjointWritesBody()));
  CHECK(!full.failure_found) << full.Summary();

  std::printf("%-12s %10s %10s %10s %10s %10s\n", "mode", "schedules", "decisions", "naive-br",
              "pruned", "enqueued");
  bench::PrintRule();
  std::printf("%-12s %10llu %10llu %10llu %10llu %10llu\n", "POR",
              (unsigned long long)reduced.stats.schedules_run,
              (unsigned long long)reduced.stats.decision_points,
              (unsigned long long)reduced.stats.naive_branches,
              (unsigned long long)reduced.stats.branches_pruned,
              (unsigned long long)reduced.stats.branches_enqueued);
  std::printf("%-12s %10llu %10llu %10llu %10llu %10llu\n", "naive",
              (unsigned long long)full.stats.schedules_run,
              (unsigned long long)full.stats.decision_points,
              (unsigned long long)full.stats.naive_branches,
              (unsigned long long)full.stats.branches_pruned,
              (unsigned long long)full.stats.branches_enqueued);
  const double pct = reduced.stats.naive_branches
                         ? 100.0 * (double)reduced.stats.branches_pruned /
                               (double)reduced.stats.naive_branches
                         : 0.0;
  std::printf("\nreduction: %.1f%% of naive tie-branches pruned (bar: 50%%) -> %s\n", pct,
              pct >= 50.0 ? "PASS" : "FAIL");
  CHECK_GE(reduced.stats.branches_pruned * 2, reduced.stats.naive_branches)
      << "POR acceptance bar missed: " << reduced.Summary();
  CHECK_GT(full.stats.branches_enqueued, reduced.stats.branches_enqueued)
      << "naive search should enqueue strictly more work";
  *total_rate += WallRate(reduced.stats) + WallRate(full.stats);
  *rate_samples += 2;
}

struct MutationRow {
  const char* name;
  uint64_t schedules_to_detect = 0;
  std::string failure_class;
  size_t reproducer_choices = 0;
  bool minimized_replays = false;
};

void ReportMutationDetection(double* total_rate, int* rate_samples) {
  bench::PrintHeader("Mutation self-validation: schedules to detection",
                     "Each seeded protocol mutation must produce a failing schedule within the\n"
                     "default budget; the delta-debugged reproducer must replay to the same\n"
                     "diagnostic.");
  std::vector<MutationRow> rows;

  {
    check::ScopedMutation mutation(check::kFlagBeforeLastStripe);
    sim::ExploreOptions options;
    options.name = "bench-flag-before-last-stripe";
    options.max_schedules = 24;
    sim::Explorer explorer(options);
    sim::ExploreResult result = explorer.Explore(check::CheckedWorkload(StripedFlagBody()));
    CHECK(result.failure_found) << result.Summary();
    rows.push_back({"flag-before-last-stripe", result.stats.schedules_run,
                    result.first_failure.failure_class, result.minimized_trace.choices.size(),
                    result.minimized_report.failure_class == result.first_failure.failure_class});
    *total_rate += WallRate(result.stats);
    ++*rate_samples;
  }

  {
    // Schedule-independent once a mid-transfer drop occurs: sweep fault seeds
    // with one canonical schedule each and count every schedule run.
    check::ScopedMutation mutation(check::kRetryKeepsCursor);
    uint64_t schedules = 0;
    MutationRow row;
    row.name = "retry-keeps-cursor";
    for (uint64_t seed = 1; seed <= 32; ++seed) {
      sim::ExploreOptions options;
      options.name = "bench-retry-keeps-cursor";
      options.max_schedules = 1;
      options.jitter_schedules = 0;
      options.minimize = false;
      sim::Explorer explorer(options);
      sim::ExploreResult result =
          explorer.Explore(check::CheckedWorkload(DroppyDirectWriteBody(seed)));
      schedules += result.stats.schedules_run;
      *total_rate += WallRate(result.stats);
      ++*rate_samples;
      if (result.failure_found) {
        row.schedules_to_detect = schedules;
        row.failure_class = result.first_failure.failure_class;
        row.reproducer_choices = result.failing_trace.choices.size();
        row.minimized_replays = true;  // Canonical schedule is its own reproducer.
        break;
      }
    }
    CHECK(!row.failure_class.empty()) << "no seed in [1, 32] produced a mid-transfer drop";
    rows.push_back(row);
  }

  {
    check::ScopedMutation mutation(check::kPrematureFlagTrust);
    sim::ExploreOptions options;
    options.name = "bench-premature-flag-trust";
    options.max_schedules = 8;
    sim::Explorer explorer(options);
    sim::ExploreResult result =
        explorer.Explore(check::CheckedWorkload(SmallAllReduceBody(4096)));
    CHECK(result.failure_found) << result.Summary();
    rows.push_back({"premature-flag-trust", result.stats.schedules_run,
                    result.first_failure.failure_class, result.minimized_trace.choices.size(),
                    result.minimized_report.failure_class == result.first_failure.failure_class});
    *total_rate += WallRate(result.stats);
    ++*rate_samples;
  }

  {
    check::ScopedMutation mutation(check::kSkipFlagWrite);
    sim::ExploreOptions options;
    options.name = "bench-skip-flag-write";
    options.max_schedules = 4;
    options.jitter_schedules = 0;
    options.minimize = false;  // Every schedule stalls; shrinking buys nothing.
    sim::Explorer explorer(options);
    sim::ExploreResult result =
        explorer.Explore(check::CheckedWorkload(SmallAllReduceBody(1024)));
    CHECK(result.failure_found) << result.Summary();
    rows.push_back({"skip-flag-write", result.stats.schedules_run,
                    result.first_failure.failure_class, result.failing_trace.choices.size(),
                    true});
    *total_rate += WallRate(result.stats);
    ++*rate_samples;
  }

  std::printf("%-26s %12s %-28s %8s %10s\n", "mutation", "schedules", "failure class", "repro",
              "minimized");
  bench::PrintRule();
  for (const MutationRow& row : rows) {
    std::printf("%-26s %12llu %-28s %8zu %10s\n", row.name,
                (unsigned long long)row.schedules_to_detect, row.failure_class.c_str(),
                row.reproducer_choices, row.minimized_replays ? "replays" : "DIVERGED");
    CHECK(row.minimized_replays) << row.name;
  }
  std::printf("\nall %zu seeded mutations detected within budget\n", rows.size());
}

void ReportCleanBaseline(double* total_rate, int* rate_samples) {
  bench::PrintHeader("Unmutated baseline",
                     "The same workloads explore clean without a planted bug — the detection\n"
                     "table above measures the mutations, not checker noise.");
  struct Baseline {
    const char* name;
    check::WorkloadBody body;
  };
  const Baseline baselines[] = {
      {"striped-flag (drop+retry)", StripedFlagBody()},
      {"2-rank all-reduce", SmallAllReduceBody(1024)},
  };
  std::printf("%-28s %10s %10s %10s\n", "workload", "schedules", "decisions", "verdict");
  bench::PrintRule();
  for (const Baseline& baseline : baselines) {
    sim::ExploreOptions options;
    options.name = baseline.name;
    options.max_schedules = 8;
    sim::Explorer explorer(options);
    sim::ExploreResult result = explorer.Explore(check::CheckedWorkload(baseline.body));
    CHECK(!result.failure_found) << result.Summary();
    std::printf("%-28s %10llu %10llu %10s\n", baseline.name,
                (unsigned long long)result.stats.schedules_run,
                (unsigned long long)result.stats.decision_points, "clean");
    *total_rate += WallRate(result.stats);
    ++*rate_samples;
  }
}

void Main() {
  double total_rate = 0.0;
  int rate_samples = 0;
  ReportStateReduction(&total_rate, &rate_samples);
  ReportMutationDetection(&total_rate, &rate_samples);
  ReportCleanBaseline(&total_rate, &rate_samples);
  // Wall-clock throughput is machine-dependent: stderr only, so stdout stays
  // byte-identical across runs for the determinism diff.
  if (rate_samples > 0) {
    std::fprintf(stderr, "[bench_explore] mean throughput: %.0f schedules/sec over %d runs\n",
                 total_rate / rate_samples, rate_samples);
  }
}

}  // namespace
}  // namespace rdmadl

int main() {
  rdmadl::Main();
  return 0;
}

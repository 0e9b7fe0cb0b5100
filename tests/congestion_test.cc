// Congestion-control subsystem tests (ISSUE 8).
//
// Covers the four tentpole layers plus the satellite fixes:
//   * Link queue semantics: ECN marking, tail drop, PFC pause windows, and
//     the zero-config Admit == Reserve identity the byte-compat story rests
//     on;
//   * property test: AvailableAt's binary search against a linear-scan
//     reference while ECN pause windows interleave with fault-injected down
//     windows under one seed;
//   * CappedBackoffNs regression: exponential backoff saturates at the cap
//     instead of overflowing at deep retry counts, and the idle poll
//     schedule (IdlePollBackoffNs) equals the doubling it replaced;
//   * the deterministic latency histogram's bucket layout and percentiles;
//   * DCQCN end to end on a mini incast: CNPs flow, rates decrease, pacing
//     spreads the storm, and the QPs still deliver every byte;
//   * the RdmaCheck flag/ordering contract under throttled and paused
//     delivery, asserted non-vacuously (a run with zero congestion signals
//     would prove nothing);
//   * straggler/jitter chaos: same-seed runs are byte-identical, seeds 1-10
//     stay checker-clean with congestion and stragglers both enabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "src/check/explore.h"
#include "src/check/rdma_check.h"
#include "src/check/testing.h"
#include "src/collective/collective.h"
#include "src/models/model_spec.h"
#include "src/net/fabric.h"
#include "src/net/topology.h"
#include "src/rdma/verbs.h"
#include "src/sim/fault.h"
#include "src/sim/histogram.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"
#include "src/train/ps_training.h"
#include "src/util/strings.h"

namespace rdmadl {

RDMADL_REGISTER_PROTOCOL_CHECK_LISTENER();

namespace {

using net::CongestionConfig;
using net::Link;
using sim::LatencyHistogram;

// ---- CappedBackoffNs / transport retry schedule ---------------------------

TEST(BackoffTest, MatchesNaiveShiftInSafeRange) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    EXPECT_EQ(net::CappedBackoffNs(20'000, attempt, 2'560'000), 20'000ll << attempt);
  }
  EXPECT_EQ(net::CappedBackoffNs(20'000, 7, 2'560'000), 2'560'000);  // Exactly at cap.
}

TEST(BackoffTest, SaturatesAtCapInsteadOfOverflowing) {
  const int64_t cap = 2'560'000;
  // The naive `base << attempt` goes negative past attempt ~40; every deep
  // attempt must clamp to the cap and never schedule an event in the past.
  for (int attempt : {8, 20, 40, 62, 63, 64, 100, 1'000'000}) {
    EXPECT_EQ(net::CappedBackoffNs(20'000, attempt, cap), cap) << attempt;
  }
  // No cap: saturates at int64 max rather than wrapping.
  for (int attempt : {62, 63, 127}) {
    const int64_t v = net::CappedBackoffNs(3, attempt, 0);
    EXPECT_GT(v, 0) << attempt;
  }
  EXPECT_EQ(net::CappedBackoffNs(0, 5, 100), 0);    // Disabled base.
  EXPECT_EQ(net::CappedBackoffNs(200, -3, 100), 100);  // Base above cap.
}

TEST(BackoffTest, TransportScheduleReadsCostModel) {
  net::CostModel cost;
  EXPECT_EQ(net::TransportBackoffNs(cost, 0), cost.rdma_transport_retry_base_ns);
  // The stock schedule's deepest legal attempt lands exactly on the cap...
  EXPECT_EQ(net::TransportBackoffNs(cost, cost.rdma_transport_retry_count),
            cost.rdma_transport_retry_max_ns);
  // ...and a hypothetical deeper retry budget saturates there too.
  EXPECT_EQ(net::TransportBackoffNs(cost, 500), cost.rdma_transport_retry_max_ns);
}

// Every virtual number of the executor and the collective pollers was
// calibrated on the recurrence "start at the base, take min(2x, max) per
// miss". Pin the shared schedule to it on the default CostModel and on
// bench_ablation_design's poll interval sweep (max = max(interval, 16 us)).
TEST(BackoffTest, IdlePollScheduleMatchesRepeatedDoubling) {
  std::vector<net::CostModel> configs(1);  // The default.
  for (int64_t interval : {250, 1'000, 8'000, 64'000, 512'000}) {
    net::CostModel cost;
    cost.idle_poll_interval_ns = interval;
    cost.idle_poll_max_interval_ns = std::max<int64_t>(interval, 16'000);
    configs.push_back(cost);
  }
  for (const net::CostModel& cost : configs) {
    ASSERT_EQ(net::IdlePollScheduleError(cost), "");
    int64_t doubled = cost.idle_poll_interval_ns;
    for (int misses = 0; misses <= 8; ++misses) {
      EXPECT_EQ(net::IdlePollBackoffNs(cost, misses), doubled)
          << cost.idle_poll_interval_ns << "/" << cost.idle_poll_max_interval_ns << " @ "
          << misses;
      doubled = std::min(doubled * 2, cost.idle_poll_max_interval_ns);
    }
  }
}

// ---- Latency histogram ----------------------------------------------------

TEST(HistogramTest, SmallValuesAreExact) {
  LatencyHistogram h;
  for (int64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(LatencyHistogram::BucketIndex(v), v);
    EXPECT_EQ(LatencyHistogram::BucketLowerBound(static_cast<int>(v)), v);
  }
  h.Record(7);
  EXPECT_EQ(h.P50(), 7);
  EXPECT_EQ(h.max_ns(), 7);
  EXPECT_EQ(h.mean_ns(), 7);
}

TEST(HistogramTest, BucketBoundsBracketEveryValue) {
  // Lower bound <= v, and v is strictly below the next bucket's lower bound:
  // the defining property of the log2/16-sub-bucket layout (<= 6.25% error).
  for (int64_t v : {16ll, 17ll, 31ll, 32ll, 1'000ll, 4'095ll, 4'096ll, 123'456'789ll,
                    (1ll << 40) + 12'345, (1ll << 62) + 1}) {
    const int idx = LatencyHistogram::BucketIndex(v);
    const int64_t lo = LatencyHistogram::BucketLowerBound(idx);
    EXPECT_LE(lo, v) << v;
    EXPECT_GT(LatencyHistogram::BucketLowerBound(idx + 1), v) << v;
    EXPECT_LE(v - lo, v / 16) << v;  // Relative error bound.
  }
}

TEST(HistogramTest, PercentilesAreNearestRankBucketLowerBounds) {
  LatencyHistogram h;
  // 1000 x 100ns, 10 x 100us: the tail is exactly the top 10/1010 ≈ 1%.
  for (int i = 0; i < 1000; ++i) h.Record(100);
  for (int i = 0; i < 10; ++i) h.Record(100'000);
  EXPECT_EQ(h.count(), 1010u);
  EXPECT_EQ(h.P50(), 100);
  EXPECT_EQ(h.Percentile(99.0), 100);  // Rank 1000 of 1010 is still a fast one.
  EXPECT_EQ(h.P999(), LatencyHistogram::BucketLowerBound(
                          LatencyHistogram::BucketIndex(100'000)));
  EXPECT_EQ(h.Percentile(0.0), 100);
  EXPECT_EQ(h.max_ns(), 100'000);
}

TEST(HistogramTest, MergeIsElementwise) {
  LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(50);
  for (int i = 0; i < 100; ++i) b.Record(5'000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.P50(), 50);
  EXPECT_EQ(a.Percentile(99.0),
            LatencyHistogram::BucketLowerBound(LatencyHistogram::BucketIndex(5'000)));
  EXPECT_EQ(a.min_ns(), 50);
  EXPECT_EQ(a.max_ns(), 5'000);
  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.P999(), 0);
}

// ---- Link queue semantics -------------------------------------------------

TEST(LinkCongestionTest, UnconfiguredAdmitIsExactlyReserve) {
  Link plain("plain"), admit("admit");
  sim::Rng rng(7);
  int64_t now = 0;
  for (int i = 0; i < 200; ++i) {
    now += static_cast<int64_t>(rng.Next() % 1'000);
    const int64_t dur = 1 + static_cast<int64_t>(rng.Next() % 5'000);
    const Link::Admission adm = admit.Admit(now, dur);
    EXPECT_EQ(adm.done_ns, plain.Reserve(now, dur));
    EXPECT_FALSE(adm.ecn);
    EXPECT_FALSE(adm.dropped);
  }
  EXPECT_EQ(admit.congestion_stats().ecn_marks, 0u);
  EXPECT_FALSE(admit.congested());
}

TEST(LinkCongestionTest, EcnMarksAboveThresholdOnly) {
  Link link("l");
  link.ConfigureCongestion(/*capacity_ns=*/0, /*ecn_threshold_ns=*/1'000,
                           /*pause_on_overflow=*/false, /*pause_ns=*/0);
  EXPECT_TRUE(link.congested());
  // Empty queue: no mark. Backlog builds at 400ns per admit from t=0.
  EXPECT_FALSE(link.Admit(0, 400).ecn);   // Backlog 0.
  EXPECT_FALSE(link.Admit(0, 400).ecn);   // Backlog 400.
  EXPECT_FALSE(link.Admit(0, 400).ecn);   // Backlog 800.
  EXPECT_TRUE(link.Admit(0, 400).ecn);    // Backlog 1200 >= threshold.
  EXPECT_EQ(link.congestion_stats().ecn_marks, 1u);
  EXPECT_EQ(link.congestion_stats().peak_backlog_ns, 1'200);
}

TEST(LinkCongestionTest, OverflowDropsReserveNothing) {
  Link link("l");
  link.ConfigureCongestion(/*capacity_ns=*/1'000, /*ecn_threshold_ns=*/500,
                           /*pause_on_overflow=*/false, /*pause_ns=*/0);
  while (link.next_free_ns() <= 1'000) link.Admit(0, 300);
  const int64_t before = link.next_free_ns();
  const Link::Admission dropped = link.Admit(0, 300);
  EXPECT_TRUE(dropped.dropped);
  EXPECT_FALSE(dropped.ecn);  // A dropped packet carries no mark home.
  EXPECT_EQ(link.next_free_ns(), before);  // Nothing reserved.
  EXPECT_EQ(link.congestion_stats().overflow_drops, 1u);
  // The queue drains with virtual time: the same admit later succeeds.
  const Link::Admission later = link.Admit(before, 300);
  EXPECT_FALSE(later.dropped);
}

TEST(LinkCongestionTest, PauseOpensDownWindowInsteadOfDropping) {
  Link link("l");
  link.ConfigureCongestion(/*capacity_ns=*/1'000, /*ecn_threshold_ns=*/0,
                           /*pause_on_overflow=*/true, /*pause_ns=*/5'000);
  while (link.next_free_ns() <= 1'000) link.Admit(0, 300);
  const int64_t backlog_end = link.next_free_ns();
  const Link::Admission paused = link.Admit(0, 300);
  EXPECT_FALSE(paused.dropped);  // Lossless: admitted after the pause window.
  EXPECT_EQ(paused.done_ns, backlog_end + 5'000 + 300);
  EXPECT_EQ(link.congestion_stats().pause_windows, 1u);
  EXPECT_EQ(link.congestion_stats().paused_ns_total, 5'000);
}

// ---- AvailableAt property test: pauses x fault down windows ---------------

// Linear-scan reference: earliest t' >= t not inside the union of windows,
// iterated to a fixpoint so overlapping unmerged intervals behave like their
// union. This is the semantics AvailableAt's binary search over *coalesced*
// windows must reproduce.
int64_t ReferenceAvailableAt(int64_t t, const std::vector<std::pair<int64_t, int64_t>>& ws) {
  bool moved = true;
  while (moved) {
    moved = false;
    for (const auto& w : ws) {
      if (t >= w.first && t < w.second) {
        t = w.second;
        moved = true;
      }
    }
  }
  return t;
}

TEST(LinkCongestionTest, PauseWindowsInterleaveWithFaultDownWindows) {
  // One seeded storm drives both mechanisms against the same link: explicit
  // AddDownWindow calls (the fault injector's path) interleaved with
  // pause-mode admits whose overflow opens ECN pause windows internally.
  // Every window the test can know about goes into the reference list; the
  // binary search must agree with the linear scan at every probe.
  sim::Rng rng(1234);
  Link link("l");
  const int64_t pause_ns = 700;
  link.ConfigureCongestion(/*capacity_ns=*/2'000, /*ecn_threshold_ns=*/800,
                           /*pause_on_overflow=*/true, pause_ns);
  std::vector<std::pair<int64_t, int64_t>> reference;
  uint64_t pauses_seen = 0;
  int64_t now = 0;
  for (int i = 0; i < 2'000; ++i) {
    const uint64_t kind = rng.Next() % 3;
    if (kind == 0) {
      // Fault-injected down window, deliberately allowed to overlap/touch
      // existing windows so coalescing paths are exercised.
      const int64_t from = now + static_cast<int64_t>(rng.Next() % 4'000);
      const int64_t until = from + 1 + static_cast<int64_t>(rng.Next() % 2'000);
      link.AddDownWindow(from, until);
      reference.emplace_back(from, until);
    } else {
      now += static_cast<int64_t>(rng.Next() % 600);
      const int64_t dur = 1 + static_cast<int64_t>(rng.Next() % 900);
      // Predict the pause window from public state, mirroring Admit's own
      // backlog computation, so the reference knows the window even when it
      // immediately coalesces into a longer fault window.
      const int64_t pre_start = link.AvailableAt(std::max(now, link.next_free_ns()));
      const bool expect_pause = pre_start - now > 2'000;  // capacity_ns.
      const Link::Admission adm = link.Admit(now, dur);
      ASSERT_FALSE(adm.dropped);
      if (expect_pause) {
        reference.emplace_back(pre_start, pre_start + pause_ns);
      }
      EXPECT_EQ(link.congestion_stats().pause_windows, pauses_seen + (expect_pause ? 1 : 0))
          << "iteration " << i;
      pauses_seen = link.congestion_stats().pause_windows;
      // The reserved slot must not *start* inside any known window.
      EXPECT_EQ(ReferenceAvailableAt(adm.done_ns - dur, reference), adm.done_ns - dur)
          << "iteration " << i;
    }
    // Probe AvailableAt across the whole horizon against the reference.
    const int64_t probe = static_cast<int64_t>(rng.Next() % 20'000);
    EXPECT_EQ(link.AvailableAt(probe), ReferenceAvailableAt(probe, reference))
        << "iteration " << i << " probe " << probe;
  }
  EXPECT_GT(pauses_seen, 0u) << "storm never overflowed: the property is vacuous";
  EXPECT_GT(link.congestion_stats().ecn_marks, 0u);
}

// ---- DCQCN on a mini incast ----------------------------------------------

struct IncastResult {
  uint64_t drops = 0;
  uint64_t marks = 0;
  uint64_t cnps = 0;
  uint64_t rate_decreases = 0;
  uint64_t retransmissions = 0;
  int64_t pacing_delay_ns = 0;
  int64_t finish_ns = 0;
};

// |workers| QPs each RDMA_WRITE a 64KB message into host 0 simultaneously,
// for |rounds| rounds. Returns the congestion counters; CHECK-fails if any
// write errors (the retry budget is sized so the storm always drains).
IncastResult RunMiniIncast(int workers, bool dcqcn, int rounds = 4) {
  sim::Simulator simulator;
  net::CostModel cost;
  cost.rdma_transport_retry_count = 20;
  net::TopologyConfig topo;
  topo.congestion.queue_capacity_bytes = 256 << 10;
  topo.congestion.ecn_threshold_bytes = 64 << 10;
  topo.congestion.dcqcn = dcqcn;
  net::Fabric fabric(&simulator, cost, workers + 1, topo);
  rdma::RdmaFabric rdma(&fabric);

  constexpr uint64_t kBytes = 64 << 10;
  std::vector<uint8_t> dst(workers * kBytes), src(workers * kBytes);
  auto dst_mr = rdma.nic(0)->RegisterMemory(dst.data(), dst.size());
  CHECK_OK(dst_mr.status());
  rdma::CompletionQueue* agg_cq = rdma.nic(0)->CreateCompletionQueue();

  struct Worker {
    rdma::MemoryRegion mr;
    rdma::QueuePair* qp = nullptr;
    int completions = 0;
  };
  std::vector<Worker> state(workers);
  for (int w = 0; w < workers; ++w) {
    rdma::NicDevice* nic = rdma.nic(w + 1);
    auto mr = nic->RegisterMemory(src.data() + w * kBytes, kBytes);
    CHECK_OK(mr.status());
    state[w].mr = *mr;
    rdma::CompletionQueue* cq = nic->CreateCompletionQueue();
    cq->SetCompletionHandler([&state, w, cq]() {
      rdma::WorkCompletion wc;
      while (cq->Poll(&wc)) {
        CHECK_OK(wc.status);
        ++state[w].completions;
      }
    });
    state[w].qp = nic->CreateQueuePair(cq, cq);
    CHECK_OK(state[w].qp->Connect(rdma.nic(0)->CreateQueuePair(agg_cq, agg_cq)));
  }
  for (int r = 0; r < rounds; ++r) {
    for (int w = 0; w < workers; ++w) {
      rdma::SendWorkRequest wr;
      wr.wr_id = w;
      wr.opcode = rdma::Opcode::kWrite;
      wr.local_addr = state[w].mr.addr;
      wr.lkey = state[w].mr.lkey;
      wr.length = kBytes;
      wr.remote_addr = reinterpret_cast<uint64_t>(dst.data()) + w * kBytes;
      wr.rkey = dst_mr->rkey;
      wr.copy_bytes = false;
      CHECK_OK(state[w].qp->PostSend(wr));
    }
    CHECK_OK(simulator.Run());
  }

  IncastResult out;
  for (int w = 0; w < workers; ++w) {
    EXPECT_EQ(state[w].completions, rounds);
    const rdma::NicStats& s = rdma.nic(w + 1)->stats();
    out.cnps += s.cnps_received;
    out.rate_decreases += s.dcqcn_rate_decreases;
    out.retransmissions += s.retransmissions;
    out.marks += s.ecn_marked_segments;
    out.pacing_delay_ns += s.dcqcn_pacing_delay_ns_total;
  }
  out.drops = fabric.congestion_totals().overflow_drops;
  out.finish_ns = simulator.Now();
  // Clean teardown so the RDMADL_CHECK=1 run sees no leaked registrations.
  for (int w = 0; w < workers; ++w) {
    CHECK_OK(rdma.nic(w + 1)->DeregisterMemory(state[w].mr));
  }
  CHECK_OK(rdma.nic(0)->DeregisterMemory(*dst_mr));
  return out;
}

TEST(DcqcnTest, CcOffCollapsesAndNobodyReacts) {
  const IncastResult off = RunMiniIncast(16, /*dcqcn=*/false);
  EXPECT_GT(off.drops, 0u);            // The queue genuinely overflows.
  EXPECT_GT(off.marks, 0u);            // Marks are counted...
  EXPECT_EQ(off.cnps, 0u);             // ...but nobody reacts.
  EXPECT_EQ(off.rate_decreases, 0u);
  EXPECT_EQ(off.pacing_delay_ns, 0);
  EXPECT_EQ(off.retransmissions, off.drops);  // Every drop is retried.
}

TEST(DcqcnTest, ReactionPointThrottlesAndRecovers) {
  const IncastResult off = RunMiniIncast(16, /*dcqcn=*/false);
  const IncastResult on = RunMiniIncast(16, /*dcqcn=*/true);
  EXPECT_GT(on.cnps, 0u);
  EXPECT_GT(on.rate_decreases, 0u);
  EXPECT_GT(on.pacing_delay_ns, 0);
  // The whole point: the reaction point sheds most of the packet loss.
  EXPECT_LT(on.drops, off.drops / 2);
}

TEST(DcqcnTest, SameSeedIncastIsByteIdentical) {
  const IncastResult a = RunMiniIncast(12, /*dcqcn=*/true);
  const IncastResult b = RunMiniIncast(12, /*dcqcn=*/true);
  EXPECT_EQ(a.finish_ns, b.finish_ns);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.cnps, b.cnps);
  EXPECT_EQ(a.rate_decreases, b.rate_decreases);
  EXPECT_EQ(a.pacing_delay_ns, b.pacing_delay_ns);
}

// ---- Flag contract under throttled / paused delivery ----------------------

// A full zero-copy PS training step on a congested pause-mode fabric with the
// protocol checker installed: payload-before-flag must hold even when every
// stripe is rate limited and the aggregator's ingress keeps pausing. The
// congestion-signal counters make the pass non-vacuous.
TEST(CongestionCheckTest, FlagContractSurvivesRateLimitedDelivery) {
  // Under RDMADL_CHECK=1 the gtest listener already installed a per-test
  // checker; installing a second would abort. Piggyback on whichever is live
  // (the listener finalizes its own at test end).
  std::unique_ptr<check::RdmaCheck> owned;
  if (check::RdmaCheck::Current() == nullptr) {
    owned = std::make_unique<check::RdmaCheck>();
  }
  check::RdmaCheck& checker = *check::RdmaCheck::Current();
  {
    train::TrainingConfig config;
    config.model = models::Fcn5();
    config.num_machines = 4;
    config.batch_size = 8;
    config.mechanism = train::MechanismKind::kRdmaZeroCopy;
    config.topology.congestion.queue_capacity_bytes = 512 << 10;
    config.topology.congestion.ecn_threshold_bytes = 32 << 10;
    config.topology.congestion.pause_on_overflow = true;
    config.topology.congestion.dcqcn = true;
    train::TrainingDriver driver(std::move(config));
    ASSERT_TRUE(driver.Initialize(/*warmup_steps=*/1).ok());
    auto ms = driver.MeasureStepTimeMs(/*steps=*/2);
    ASSERT_TRUE(ms.ok()) << ms.status();
    EXPECT_GT(driver.step_latencies().count(), 0u);
  }
  if (owned != nullptr) {
    EXPECT_TRUE(checker.Finalize().empty()) << checker.Report();
  }
  // Non-vacuity: the fabric must actually have throttled something.
  EXPECT_GT(checker.congestion_signal_count(check::RdmaCheck::CongestionSignal::kEcnMark),
            0u);
  EXPECT_GT(checker.congestion_signal_count(check::RdmaCheck::CongestionSignal::kCnp), 0u);
  EXPECT_GT(
      checker.congestion_signal_count(check::RdmaCheck::CongestionSignal::kRateDecrease),
      0u);
}

// ---- Straggler / jitter chaos --------------------------------------------

TEST(StragglerTest, DilationsAreSeededAndDeterministic) {
  sim::StragglerSpec spec;
  spec.straggler_probability = 0.5;
  spec.dilation_min = 1.2;
  spec.dilation_max = 2.0;
  spec.jitter_max_ns = 1'000;

  sim::FaultInjector a(42), b(42), c(43);
  a.ConfigureStragglers(spec, 64);
  b.ConfigureStragglers(spec, 64);
  c.ConfigureStragglers(spec, 64);
  int stragglers = 0;
  bool seeds_differ = false;
  for (int h = 0; h < 64; ++h) {
    EXPECT_EQ(a.ComputeDilation(h), b.ComputeDilation(h)) << h;
    if (a.ComputeDilation(h) != c.ComputeDilation(h)) seeds_differ = true;
    if (a.ComputeDilation(h) > 1.0) {
      ++stragglers;
      EXPECT_GE(a.ComputeDilation(h), spec.dilation_min);
      EXPECT_LE(a.ComputeDilation(h), spec.dilation_max);
    }
  }
  EXPECT_GT(stragglers, 8);   // ~32 expected at p=0.5 over 64 hosts.
  EXPECT_LT(stragglers, 56);
  EXPECT_TRUE(seeds_differ);
  EXPECT_EQ(a.stats().stragglers, static_cast<uint64_t>(stragglers));
}

TEST(StragglerTest, UnconfiguredKnobConsumesNoRandomness) {
  // Two injectors, same seed: one consults jitter (unconfigured), the other
  // never does. Their subsequent spike draws must stay in lockstep — the
  // knob must not perturb pre-knob seeds.
  sim::LinkFaultSpec spikes;
  spikes.spike_probability = 1.0;
  spikes.spike_min_ns = 10;
  spikes.spike_max_ns = 10'000;
  sim::FaultInjector a(99), b(99);
  a.SetDefaultLinkFault(spikes);
  b.SetDefaultLinkFault(spikes);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.DrawJitterNs(0, 1), 0);
    EXPECT_EQ(a.DrawSpikeNs(0, 1), b.DrawSpikeNs(0, 1)) << i;
  }
  EXPECT_EQ(a.stats().jitter_draws, 0u);
}

TEST(StragglerTest, DilationSlowsTrainingDeterministically) {
  auto run = [](uint64_t seed, bool stragglers) -> double {
    train::TrainingConfig config;
    config.model = models::Fcn5();
    config.num_machines = 4;
    config.batch_size = 8;
    config.mechanism = train::MechanismKind::kRdmaZeroCopy;
    train::TrainingDriver driver(std::move(config));
    CHECK_OK(driver.Initialize(/*warmup_steps=*/1));
    sim::FaultInjector injector(seed);
    if (stragglers) {
      sim::StragglerSpec spec;
      spec.straggler_probability = 1.0;  // Every host drags.
      spec.dilation_min = 1.5;
      spec.dilation_max = 1.5;
      injector.ConfigureStragglers(spec, 4);
    }
    driver.cluster()->fabric()->SetFaultInjector(&injector);
    auto ms = driver.MeasureStepTimeMs(/*steps=*/1);
    CHECK(ms.ok()) << ms.status();
    return *ms;
  };
  const double baseline = run(5, false);
  const double dragged = run(5, true);
  const double dragged_again = run(5, true);
  EXPECT_EQ(dragged, dragged_again);  // Same seed: byte-identical.
  // Compute dilation 1.5x must slow the step, but communication is not
  // dilated so the step grows by less than 1.5x.
  EXPECT_GT(dragged, baseline * 1.05);
  EXPECT_LT(dragged, baseline * 1.5);
}

// Chaos seeds 1-10 with congestion AND stragglers enabled: a ring all-reduce
// completes checker-clean, delivers exact sums, and same-seed reruns are
// byte-identical (the bench_scale --congestion seed sweep of
// scripts/check.sh --sweep in miniature).
TEST(CongestionChaosTest, SeedsOneThroughTenAreCleanAndDeterministic) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    int64_t first_finish = -1;
    for (int run = 0; run < 2; ++run) {
      // Under RDMADL_CHECK=1 the listener's per-test checker is already
      // installed and finalizes at test end; only install our own otherwise.
      std::unique_ptr<check::RdmaCheck> checker;
      if (check::RdmaCheck::Current() == nullptr) {
        checker = std::make_unique<check::RdmaCheck>();
      }
      int64_t finish = -1;
      {
        sim::Simulator simulator;
        net::CostModel cost;
        net::TopologyConfig topo;
        topo.hosts_per_rack = 8;
        topo.oversubscription = 4.0;
        topo.congestion.queue_capacity_bytes = 1 << 20;
        topo.congestion.ecn_threshold_bytes = 128 << 10;
        topo.congestion.pause_on_overflow = true;
        topo.congestion.dcqcn = true;
        const int hosts = 16;
        net::Fabric fabric(&simulator, cost, hosts, topo);
        sim::FaultInjector injector(seed);
        sim::LinkFaultSpec spikes;
        spikes.spike_probability = 0.05;
        spikes.spike_min_ns = 1'000;
        spikes.spike_max_ns = 20'000;
        injector.SetDefaultLinkFault(spikes);
        sim::StragglerSpec straggle;
        straggle.straggler_probability = 0.25;
        straggle.dilation_min = 1.1;
        straggle.dilation_max = 1.4;
        straggle.jitter_max_ns = 2'000;
        injector.ConfigureStragglers(straggle, hosts);
        injector.SetLinkDown(static_cast<int>(seed % hosts), 50'000, 250'000);
        fabric.SetFaultInjector(&injector);

        rdma::RdmaFabric rdma(&fabric);
        device::DeviceDirectory directory(&rdma);
        std::vector<int> host_ids(hosts);
        std::iota(host_ids.begin(), host_ids.end(), 0);
        collective::CollectiveOptions options;
        options.algorithm = collective::Algorithm::kRing;
        const uint64_t elements = 64 * 1024;
        auto group =
            collective::CollectiveGroup::Create(&directory, host_ids, elements, options);
        ASSERT_TRUE(group.ok()) << group.status();
        for (int r = 0; r < hosts; ++r) {
          float* data = (*group)->data(r);
          for (uint64_t i = 0; i < elements; ++i) {
            data[i] = static_cast<float>((r + 1) * (i % 7 + 1));
          }
        }
        bool done = false;
        Status status = Internal("never completed");
        (*group)->AllReduce(elements, [&](const Status& s) {
          done = true;
          status = s;
        });
        ASSERT_TRUE(simulator.Run().ok()) << "seed " << seed;
        ASSERT_TRUE(done);
        ASSERT_TRUE(status.ok()) << "seed " << seed << ": " << status;
        for (uint64_t i = 0; i < elements; i += 1'000) {
          float want = 0;
          for (int r = 0; r < hosts; ++r) want += static_cast<float>((r + 1) * (i % 7 + 1));
          ASSERT_EQ((*group)->data(0)[i], want) << "seed " << seed << " i=" << i;
        }
        finish = simulator.Now();
      }
      if (checker != nullptr) {
        ASSERT_TRUE(checker->Finalize().empty())
            << "seed " << seed << ":\n" << checker->Report();
      }
      if (run == 0) {
        first_finish = finish;
      } else {
        EXPECT_EQ(finish, first_finish) << "seed " << seed << " diverged across reruns";
      }
    }
  }
}

// Schedule-space exploration harness (ISSUE 9). With RDMADL_EXPLORE=16 (the
// congestion_test_explore ctest entry) a mini incast with tail-drop queues,
// ECN marking, and DCQCN enabled is replayed across tie permutations and
// timing perturbations, each replay under a fresh RdmaCheck — reordering the
// CNP/pause/retry interleavings must never corrupt delivery or trip a
// protocol invariant.
TEST(ExploreHarnessTest, ExploreMiniIncastUnderDcqcnStaysClean) {
  sim::ExploreResult result = check::ExploreForTest(
      "congestion.mini-incast", [](sim::Simulator& simulator) -> Status {
        net::CostModel cost;
        cost.rdma_transport_retry_count = 20;
        net::TopologyConfig topo;
        topo.congestion.queue_capacity_bytes = 64 << 10;
        topo.congestion.ecn_threshold_bytes = 16 << 10;
        topo.congestion.dcqcn = true;
        net::Fabric fabric(&simulator, cost, /*num_hosts=*/3, topo);
        rdma::RdmaFabric rdma(&fabric);
        device::DeviceDirectory directory(&rdma);
        auto receiver = device::RdmaDevice::Create(&directory, /*num_cqs=*/2,
                                                   /*num_qps_per_peer=*/2, Endpoint{0, 7000});
        auto sender_a = device::RdmaDevice::Create(&directory, /*num_cqs=*/2,
                                                   /*num_qps_per_peer=*/2, Endpoint{1, 7000});
        auto sender_b = device::RdmaDevice::Create(&directory, /*num_cqs=*/2,
                                                   /*num_qps_per_peer=*/2, Endpoint{2, 7000});
        if (!receiver.ok()) return receiver.status();
        if (!sender_a.ok()) return sender_a.status();
        if (!sender_b.ok()) return sender_b.status();
        constexpr uint64_t kBytes = 128 << 10;
        auto dst_a = (*receiver)->AllocateMemRegion(kBytes);
        auto dst_b = (*receiver)->AllocateMemRegion(kBytes);
        auto src_a = (*sender_a)->AllocateMemRegion(kBytes);
        auto src_b = (*sender_b)->AllocateMemRegion(kBytes);
        if (!dst_a.ok()) return dst_a.status();
        if (!dst_b.ok()) return dst_b.status();
        if (!src_a.ok()) return src_a.status();
        if (!src_b.ok()) return src_b.status();
        std::memset(src_a->data(), 0x11, kBytes);
        std::memset(src_b->data(), 0x22, kBytes);
        auto chan_a = (*sender_a)->GetChannel((*receiver)->endpoint(), /*qp_idx=*/0);
        auto chan_b = (*sender_b)->GetChannel((*receiver)->endpoint(), /*qp_idx=*/0);
        if (!chan_a.ok()) return chan_a.status();
        if (!chan_b.ok()) return chan_b.status();
        auto done = std::make_shared<int>(0);
        auto failed = std::make_shared<Status>(OkStatus());
        auto on_done = [done, failed](const Status& s) {
          if (!s.ok() && failed->ok()) *failed = s;
          ++*done;
        };
        (*chan_a)->Memcpy(src_a->data(), src_a->lkey(), dst_a->Remote().addr, dst_a->rkey(),
                          kBytes, device::Direction::kLocalToRemote, on_done);
        (*chan_b)->Memcpy(src_b->data(), src_b->lkey(), dst_b->Remote().addr, dst_b->rkey(),
                          kBytes, device::Direction::kLocalToRemote, on_done);
        Status run = simulator.RunUntilPredicate([done] { return *done == 2; });
        if (!run.ok()) return run;
        if (!failed->ok()) return *failed;
        for (uint64_t i = 0; i < kBytes; ++i) {
          if (dst_a->data()[i] != 0x11 || dst_b->data()[i] != 0x22) {
            return Internal(StrCat("incast byte ", i, " corrupt after congested delivery"));
          }
        }
        return OkStatus();
      });
  EXPECT_FALSE(result.failure_found) << result.Summary();
  EXPECT_GE(result.stats.schedules_run, 1);
}

}  // namespace
}  // namespace rdmadl

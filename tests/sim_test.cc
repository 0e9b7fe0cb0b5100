#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/simulator.h"

namespace rdmadl {
namespace sim {
namespace {

// Misses |misses| ticks |interval| ns apart, then fires once, logging |id|.
class TestPoller : public Poller {
 public:
  TestPoller(int id, int misses, int64_t interval, std::vector<int>* log)
      : id_(id), misses_(misses), interval_(interval), log_(log) {}

  int64_t Tick(uint64_t /*tag*/) override {
    ++ticks_;
    if (misses_ < 0 || misses_-- > 0) return interval_;  // misses < 0: forever.
    log_->push_back(id_);
    return kFired;
  }
  int ticks() const { return ticks_; }

 private:
  int id_;
  int misses_;
  int64_t interval_;
  std::vector<int>* log_;
  int ticks_ = 0;
};

// Records every tie set it is shown and always picks the canonical order.
class RecordingPolicy : public SchedulePolicy {
 public:
  uint32_t PickTied(const std::vector<uint64_t>& seqs) override {
    tie_sets.push_back(seqs);
    return 0;
  }
  std::vector<std::vector<uint64_t>> tie_sets;
};

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator s;
  EXPECT_EQ(s.Now(), 0);
  EXPECT_TRUE(s.empty());
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(300, [&] { order.push_back(3); });
  s.ScheduleAt(100, [&] { order.push_back(1); });
  s.ScheduleAt(200, [&] { order.push_back(2); });
  ASSERT_TRUE(s.Run().ok());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), 300);
}

TEST(SimulatorTest, EqualTimeEventsRunInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.ScheduleAt(50, [&order, i] { order.push_back(i); });
  }
  ASSERT_TRUE(s.Run().ok());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, EqualTimePollTicksAndEventsRunInArmOrder) {
  Simulator s;
  std::vector<int> order;
  TestPoller first(0, 0, 0, &order);
  TestPoller third(2, 0, 0, &order);
  s.ArmPoll(50, &first, 0, /*jittered=*/false);
  s.ScheduleAt(50, [&] { order.push_back(1); });
  s.ArmPoll(50, &third, 0, /*jittered=*/true);
  s.ScheduleAt(50, [&] { order.push_back(3); });
  ASSERT_TRUE(s.Run().ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorTest, MissedTickTakesItsSeqWhereARearmedEventWould) {
  // A poller missing at t=10 re-keys its tick to t=20 under the seq an event
  // re-armed at that instant would take: after the event scheduled (at
  // t=0) for t=20, and before the one scheduled after the miss.
  Simulator s;
  std::vector<int> order;
  TestPoller poller(1, 1, 10, &order);
  s.ArmPoll(10, &poller, 0, /*jittered=*/false);
  s.ScheduleAt(20, [&] { order.push_back(0); });
  s.ScheduleAt(15, [&] { s.ScheduleAt(20, [&] { order.push_back(2); }); });
  ASSERT_TRUE(s.Run().ok());
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(s.Now(), 20);
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator s;
  int64_t observed = -1;
  s.ScheduleAt(1000, [&] {
    s.ScheduleAfter(500, [&] { observed = s.Now(); });
  });
  ASSERT_TRUE(s.Run().ok());
  EXPECT_EQ(observed, 1500);
}

TEST(SimulatorTest, NestedSchedulingFromCallbacks) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 100) s.ScheduleAfter(10, recurse);
  };
  s.ScheduleAfter(0, recurse);
  ASSERT_TRUE(s.Run().ok());
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.Now(), 99 * 10);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator s;
  int fired = 0;
  s.ScheduleAt(100, [&] { ++fired; });
  s.ScheduleAt(200, [&] { ++fired; });
  s.ScheduleAt(300, [&] { ++fired; });
  ASSERT_TRUE(s.RunUntil(250).ok());
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(s.Now(), 250);
  ASSERT_TRUE(s.Run().ok());
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorTest, RunUntilAdvancesIdleTime) {
  Simulator s;
  ASSERT_TRUE(s.RunUntil(12345).ok());
  EXPECT_EQ(s.Now(), 12345);
}

TEST(SimulatorTest, RunUntilPredicate) {
  Simulator s;
  int count = 0;
  std::function<void()> tick = [&]() {
    ++count;
    s.ScheduleAfter(10, tick);
  };
  s.ScheduleAfter(10, tick);
  ASSERT_TRUE(s.RunUntilPredicate([&] { return count >= 5; }).ok());
  EXPECT_EQ(count, 5);
}

TEST(SimulatorTest, ArmedTickKeepsTheQueueUndrained) {
  Simulator s;
  std::vector<int> fired;
  TestPoller poller(7, 5, 10, &fired);
  s.ArmPoll(10, &poller, 0, /*jittered=*/false);
  EXPECT_FALSE(s.empty());
  ASSERT_TRUE(s.RunUntilPredicate([&] { return !fired.empty(); }).ok());
  EXPECT_EQ(fired, (std::vector<int>{7}));
  EXPECT_EQ(s.Now(), 60);
  EXPECT_TRUE(s.empty());
}

TEST(SimulatorTest, RunUntilLeavesLaterTicksArmed) {
  Simulator s;
  std::vector<int> fired;
  TestPoller poller(1, 3, 100, &fired);
  s.ArmPoll(100, &poller, 0, /*jittered=*/false);
  ASSERT_TRUE(s.RunUntil(250).ok());
  EXPECT_EQ(poller.ticks(), 2);  // Misses at t=100 and t=200.
  EXPECT_EQ(s.Now(), 250);
  EXPECT_FALSE(s.empty());
  ASSERT_TRUE(s.Run().ok());
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(s.Now(), 400);
}

TEST(SimulatorTest, RunUntilPredicateFailsOnDrain) {
  Simulator s;
  s.ScheduleAfter(10, [] {});
  Status st = s.RunUntilPredicate([] { return false; });
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(SimulatorTest, EventCapDetectsLivelock) {
  Simulator s;
  std::function<void()> spin = [&]() { s.ScheduleAfter(1, spin); };
  s.ScheduleAfter(0, spin);
  Status st = s.Run(/*max_events=*/1000);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);

  // A poller that never fires is a livelock too: its misses count against
  // the cap, though not as dispatched events.
  Simulator p;
  std::vector<int> fired;
  TestPoller forever(0, /*misses=*/-1, 1, &fired);
  p.ArmPoll(0, &forever, 0, /*jittered=*/false);
  st = p.Run(/*max_events=*/1000);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(forever.ticks(), 1000);
  EXPECT_EQ(p.events_dispatched(), 0u);
  st = p.RunUntilPredicate([] { return false; }, /*max_events=*/10);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
}

TEST(SimulatorTest, StopEndsRun) {
  Simulator s;
  int fired = 0;
  s.ScheduleAt(10, [&] {
    ++fired;
    s.Stop();
  });
  s.ScheduleAt(20, [&] { ++fired; });
  ASSERT_TRUE(s.Run().ok());
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CountsDispatchedEvents) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.ScheduleAfter(i, [] {});
  ASSERT_TRUE(s.Run().ok());
  EXPECT_EQ(s.events_dispatched(), 7u);

  // Three missed ticks are not events; the tick that fires is one.
  std::vector<int> fired;
  TestPoller poller(0, 3, 5, &fired);
  s.ArmPoll(5, &poller, 0, /*jittered=*/false);
  ASSERT_TRUE(s.Run().ok());
  EXPECT_EQ(poller.ticks(), 4);
  EXPECT_EQ(s.events_dispatched(), 8u);
}

TEST(SimulatorTest, PolicySeesArmedTicksAsEvents) {
  // Ticks armed before a policy is installed join the event queue under
  // their own seqs, so the policy's tie sets are those of a poll-event chain.
  Simulator s;
  std::vector<int> order;
  TestPoller a(0, 1, 10, &order);
  TestPoller b(1, 0, 0, &order);
  s.ArmPoll(10, &a, 0, /*jittered=*/true);     // seq 0
  s.ScheduleAt(10, [&] { order.push_back(2); });  // seq 1
  s.ArmPoll(10, &b, 0, /*jittered=*/false);    // seq 2
  s.ScheduleAt(20, [&] { order.push_back(3); });  // seq 3
  TestPoller c(4, 0, 0, &order);
  s.ArmPoll(20, &c, 0, /*jittered=*/false);    // seq 4, another delay's lane
  RecordingPolicy policy;
  s.set_schedule_policy(&policy);
  ASSERT_TRUE(s.Run().ok());
  s.set_schedule_policy(nullptr);
  // t=10: {0, 1, 2}; a misses and re-arms for t=20 under seq 5.
  // t=10: {1, 2}; t=20: {3, 4, 5}, then {4, 5}.
  EXPECT_EQ(policy.tie_sets,
            (std::vector<std::vector<uint64_t>>{{0, 1, 2}, {1, 2}, {3, 4, 5}, {4, 5}}));
  EXPECT_EQ(order, (std::vector<int>{2, 1, 3, 4, 0}));
  // Under a policy every tick is an event, misses included.
  EXPECT_EQ(s.events_dispatched(), 6u);
}

// The poll-tick property scenario: pollers whose miss delays come from a
// small set (so ticks share lanes and tie with events), some re-arming after
// they fire, interleaved with event chains on the same delays, driven in
// random RunUntil slices. Each entry of the log is (poller or chain id, time).
class PollScenario {
 public:
  static constexpr int64_t kDelays[] = {0, 10, 10, 30, 80};

  PollScenario(uint64_t seed, bool ticks) : ticks_(ticks), rng_(seed) {}

  std::vector<std::pair<int, int64_t>> Run() {
    for (int i = 0; i < 8; ++i) {
      pollers_.push_back(std::make_unique<RandomPoller>(this, i, rng_.Next()));
    }
    for (int i = 0; i < 3; ++i) {
      chains_.push_back(std::make_unique<EventChain>(this, -1 - i, rng_.Next()));
    }
    for (auto& c : chains_) c->Schedule();
    for (auto& p : pollers_) p->Arm(p->Delay());
    while (!s_.empty()) {
      EXPECT_TRUE(s_.RunUntil(s_.Now() + 1 + static_cast<int64_t>(rng_.Uniform(200))).ok());
    }
    return log_;
  }

 private:
  // Misses with a drawn delay, or fires (and re-arms with a drawn delay
  // half the time), until its tick budget runs out. Without ticks each arm
  // is a ScheduleAfter event that re-arms on a miss.
  class RandomPoller : public Poller {
   public:
    RandomPoller(PollScenario* sc, int id, uint64_t seed) : sc_(sc), id_(id), rng_(seed) {}

    int64_t Delay() { return kDelays[rng_.Uniform(std::size(kDelays))]; }

    void Arm(int64_t delay) {
      if (sc_->ticks_) {
        sc_->s_.ArmPoll(delay, this, 0, /*jittered=*/false);
        return;
      }
      sc_->s_.ScheduleAfter(delay, [this] {
        const int64_t next = Tick(0);
        if (next != kFired) Arm(next);
      });
    }

    int64_t Tick(uint64_t /*tag*/) override {
      sc_->log_.emplace_back(id_, sc_->s_.Now());
      if (--budget_ <= 0) return kFired;
      if (rng_.Uniform(16) != 0) return Delay();
      if (rng_.Uniform(2) == 0) Arm(Delay());
      return kFired;
    }

   private:
    PollScenario* sc_;
    int id_;
    Rng rng_;
    int budget_ = 60;
  };

  // An event chain: logs, then schedules its next link a drawn delay later.
  class EventChain {
   public:
    EventChain(PollScenario* sc, int id, uint64_t seed) : sc_(sc), id_(id), rng_(seed) {}

    void Schedule() {
      sc_->s_.ScheduleAfter(kDelays[rng_.Uniform(std::size(kDelays))], [this] {
        sc_->log_.emplace_back(id_, sc_->s_.Now());
        if (--left_ > 0) Schedule();
      });
    }

   private:
    PollScenario* sc_;
    int id_;
    Rng rng_;
    int left_ = 40;
  };

  bool ticks_;
  Rng rng_;
  Simulator s_;
  std::vector<std::unique_ptr<RandomPoller>> pollers_;
  std::vector<std::unique_ptr<EventChain>> chains_;
  std::vector<std::pair<int, int64_t>> log_;
};

TEST(SimulatorTest, PollTicksDispatchLikeRearmedEventChains) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const std::vector<std::pair<int, int64_t>> ticks = PollScenario(seed, true).Run();
    const std::vector<std::pair<int, int64_t>> events = PollScenario(seed, false).Run();
    EXPECT_GT(ticks.size(), 200u) << "seed " << seed;
    EXPECT_EQ(ticks, events) << "seed " << seed;
  }
}

TEST(DurationHelpersTest, Conversions) {
  EXPECT_EQ(Microseconds(2.5), 2500);
  EXPECT_EQ(Milliseconds(1.0), 1'000'000);
  EXPECT_EQ(Seconds(0.001), 1'000'000);
  EXPECT_EQ(Nanoseconds(7), 7);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double v = r.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformBound) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(13), 13u);
  }
  EXPECT_EQ(r.Uniform(0), 0u);
}

TEST(RngTest, NormalHasRoughlyZeroMeanUnitVariance) {
  Rng r(123);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = r.Normal();
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

}  // namespace
}  // namespace sim
}  // namespace rdmadl

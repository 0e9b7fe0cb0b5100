#include <gtest/gtest.h>

#include <algorithm>
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

  Result Tick(uint64_t /*tag*/) override {
    ++ticks_;
    if (misses_ < 0 || misses_-- > 0) return interval_;  // misses < 0: forever.
    log_->push_back(id_);
    return kFired;
  }
  void Skipped(uint64_t /*tag*/, uint64_t /*n*/) override { FAIL() << "no miss repeats"; }
  int ticks() const { return ticks_; }

 private:
  int id_;
  int misses_;
  int64_t interval_;
  std::vector<int>* log_;
  int ticks_ = 0;
};

// Misses |delay| ns apart until |flag| is set, then fires, logging |id|;
// each miss repeats if |repeats|.
class SpinningPoller : public Poller {
 public:
  SpinningPoller(int64_t delay, bool repeats, int id = 0, std::vector<int>* log = nullptr)
      : delay_(delay), repeats_(repeats), id_(id), log_(log) {}

  Result Tick(uint64_t /*tag*/) override {
    if (flag) {
      log_->push_back(id_);
      return kFired;
    }
    ++misses_;
    return {delay_, repeats_};
  }
  void Skipped(uint64_t /*tag*/, uint64_t n) override { misses_ += n; }
  uint64_t misses() const { return misses_; }

  bool flag = false;

 private:
  int64_t delay_;
  bool repeats_;
  int id_;
  std::vector<int>* log_;
  uint64_t misses_ = 0;
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

  // A repeating miss is replayed without Tick, but under the same cap and
  // to the same instant as ticking it.
  for (const int64_t delay : {0, 3}) {
    for (const bool repeats : {false, true}) {
      Simulator r;
      SpinningPoller spin(delay, repeats);
      r.ArmPoll(delay, &spin, 0, /*jittered=*/false);
      st = r.Run(/*max_events=*/1000);
      EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
      EXPECT_EQ(spin.misses(), 1000u);
      EXPECT_EQ(r.Now(), 1000 * delay);
      st = r.RunUntilPredicate([] { return false; }, /*max_events=*/10);
      EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
      EXPECT_EQ(spin.misses(), 1010u);
      EXPECT_EQ(r.Now(), 1010 * delay);
      EXPECT_EQ(r.events_dispatched(), 0u);
    }
  }
}

TEST(SimulatorTest, ReplayedTurnsKeepTheLaneInKeyOrder) {
  // Two pollers armed together at one delay replay about 1000 turns; the
  // seqs they take keep the first-armed first, in the lane and in the event
  // queue a policy moves them into.
  Simulator s;
  std::vector<int> order;
  SpinningPoller a(10, /*repeats=*/true, 0, &order);
  SpinningPoller b(10, /*repeats=*/true, 1, &order);
  s.ArmPoll(10, &a, 0, /*jittered=*/false);
  s.ArmPoll(10, &b, 0, /*jittered=*/false);
  ASSERT_TRUE(s.RunUntil(10'005).ok());
  EXPECT_EQ(a.misses(), 1000u);
  EXPECT_EQ(b.misses(), 1000u);
  a.flag = b.flag = true;
  RecordingPolicy policy;
  s.set_schedule_policy(&policy);
  ASSERT_TRUE(s.Run().ok());
  s.set_schedule_policy(nullptr);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(s.Now(), 10'010);
  ASSERT_EQ(policy.tie_sets.size(), 1u);
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
        const int64_t next = Tick(0).delay;
        if (next != kFired) Arm(next);
      });
    }

    void Skipped(uint64_t /*tag*/, uint64_t /*n*/) override { FAIL() << "no miss repeats"; }

    Result Tick(uint64_t /*tag*/) override {
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

// The replay property scenario. Pollers climb a backoff staircase to a cap,
// where a miss repeats; each watches a flag that only events (chain links,
// and probe events that land on tick times, so their tie order with a tick
// decides whether it fires), fired ticks and the driver, between Run calls,
// set. A poller that fires re-arms most of the time. The driver runs random
// RunUntil slices, some under a max_events cap, and Run and
// RunUntilPredicateOrDeadline calls under a cap; a few slices run under the
// reference policy.
class ReplayScenario {
 public:
  enum class Mode { kReplay, kTickByTick, kPolicy };

  struct Outcome {
    std::vector<std::pair<int, int64_t>> log;  // (id, time): events and fires.
    std::vector<uint64_t> misses;              // Per poller.
    std::vector<StatusCode> codes;             // Per Run* call.
    int64_t now = 0;
  };

  ReplayScenario(uint64_t seed, Mode mode) : mode_(mode), rng_(seed) {}

  Outcome Run() {
    if (mode_ == Mode::kPolicy) s_.set_schedule_policy(&policy_);
    for (int i = 0; i < kPollers; ++i) {
      pollers_.push_back(std::make_unique<StaircasePoller>(this, i, rng_.Next()));
    }
    for (int i = 0; i < kChains; ++i) {
      chains_.push_back(std::make_unique<EventChain>(this, -1 - i, rng_.Next()));
    }
    for (auto& c : chains_) c->Schedule();
    for (auto& p : pollers_) p->Arm();
    // Bounded, so a replay that loses a fire still ends (and differs).
    for (int slice = 0; slice < 5000 && !s_.empty(); ++slice) {
      const int64_t until = s_.Now() + 1 + static_cast<int64_t>(rng_.Uniform(400));
      const uint64_t cap = 1 + rng_.Uniform(40);
      // Some slices run under the policy: armed ticks join the event queue
      // under their keys, in key order, whatever order the lanes held.
      const bool policy_slice = rng_.Uniform(8) == 0 && mode_ != Mode::kPolicy;
      if (policy_slice) s_.set_schedule_policy(&policy_);
      Status st;
      switch (rng_.Uniform(6)) {
        case 0:
          st = s_.RunUntil(until, cap);
          break;
        case 1:
          st = s_.Run(cap);
          break;
        case 2: {
          const size_t target = out_.log.size() + 1 + rng_.Uniform(4);
          st = s_.RunUntilPredicateOrDeadline([&] { return out_.log.size() >= target; }, until,
                                              cap);
          break;
        }
        default:
          st = s_.RunUntil(until);
      }
      if (policy_slice) s_.set_schedule_policy(nullptr);
      out_.codes.push_back(st.code());
      // Outside code changes state between calls.
      if (rng_.Uniform(3) == 0) flags_[rng_.Uniform(kPollers)] = true;
    }
    for (auto& p : pollers_) out_.misses.push_back(p->misses());
    out_.now = s_.Now();
    s_.set_schedule_policy(nullptr);
    return out_;
  }

  uint64_t skipped() const { return skipped_; }
  uint64_t largest_skip() const { return largest_skip_; }

 private:
  static constexpr int kPollers = 6;
  static constexpr int kChains = 3;
  static constexpr int64_t kBase = 5;
  static constexpr int64_t kCaps[] = {5, 10, 20, 40, 40};
  static constexpr int64_t kArmDelays[] = {0, 5, 10};
  static constexpr int64_t kLinkDelays[] = {0, 5, 10, 20, 40, 75, 300};

  class StaircasePoller : public Poller {
   public:
    StaircasePoller(ReplayScenario* sc, int id, uint64_t seed)
        : sc_(sc), id_(id), rng_(seed), cap_(kCaps[rng_.Uniform(std::size(kCaps))]) {}

    void Arm() {
      sc_->s_.ArmPoll(kArmDelays[rng_.Uniform(std::size(kArmDelays))], this, 0,
                      /*jittered=*/rng_.Uniform(2) == 0);
    }

    Result Tick(uint64_t /*tag*/) override {
      if (!sc_->flags_[id_]) {
        ++misses_;
        ++in_row_;
        const int64_t delay = Delay(in_row_);
        return {delay, sc_->mode_ != Mode::kTickByTick && Delay(in_row_ + 1) == delay};
      }
      sc_->flags_[id_] = false;
      sc_->out_.log.emplace_back(id_, sc_->s_.Now());
      in_row_ = 0;
      if (rng_.Uniform(3) == 0) sc_->flags_[rng_.Uniform(kPollers)] = true;
      if (!sc_->closing_ && rng_.Uniform(4) != 0) Arm();
      return kFired;
    }

    void Skipped(uint64_t /*tag*/, uint64_t n) override {
      EXPECT_EQ(sc_->mode_, Mode::kReplay);
      misses_ += n;
      in_row_ += n;
      sc_->skipped_ += n;
      sc_->largest_skip_ = std::max(sc_->largest_skip_, n);
    }

    uint64_t misses() const { return misses_; }

   private:
    // The delay after |k| >= 1 misses in a row.
    int64_t Delay(uint64_t k) const {
      return k > 4 ? cap_ : std::min(kBase << (k - 1), cap_);
    }

    ReplayScenario* sc_;
    int id_;
    Rng rng_;
    int64_t cap_;
    uint64_t misses_ = 0;
    uint64_t in_row_ = 0;
  };

  // A chain of events: each link logs, may set a flag now or through a probe
  // event one tick delay later, and schedules the next link. The last link
  // of the last chain sets every flag and stops pollers from re-arming.
  class EventChain {
   public:
    EventChain(ReplayScenario* sc, int id, uint64_t seed) : sc_(sc), id_(id), rng_(seed) {}

    void Schedule() {
      sc_->s_.ScheduleAfter(kLinkDelays[rng_.Uniform(std::size(kLinkDelays))], [this] {
        sc_->out_.log.emplace_back(id_, sc_->s_.Now());
        const int flag = static_cast<int>(rng_.Uniform(kPollers));
        switch (rng_.Uniform(4)) {
          case 0:
            sc_->flags_[flag] = true;
            break;
          case 1:
            sc_->s_.ScheduleAfter(kCaps[rng_.Uniform(std::size(kCaps))], [sc = sc_, flag] {
              sc->out_.log.emplace_back(100 + flag, sc->s_.Now());
              sc->flags_[flag] = true;
            });
            break;
          default:
            break;
        }
        if (--left_ > 0) {
          Schedule();
        } else if (++sc_->chains_done_ == kChains) {
          sc_->closing_ = true;
          for (bool& f : sc_->flags_) f = true;
        }
      });
    }

   private:
    ReplayScenario* sc_;
    int id_;
    Rng rng_;
    int left_ = 40;
  };

  Mode mode_;
  Rng rng_;
  Simulator s_;
  // Canonical order, no perturbation: under it every tick is an event and
  // every miss runs Tick, so it is the tick-by-tick reference.
  RecordingPolicy policy_;
  std::vector<std::unique_ptr<StaircasePoller>> pollers_;
  std::vector<std::unique_ptr<EventChain>> chains_;
  bool flags_[kPollers] = {};
  int chains_done_ = 0;
  bool closing_ = false;
  Outcome out_;
  uint64_t skipped_ = 0;
  uint64_t largest_skip_ = 0;
};

TEST(SimulatorTest, ReplayedMissesDispatchLikeTickingEveryMiss) {
  using Mode = ReplayScenario::Mode;
  uint64_t skipped = 0, largest_skip = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ReplayScenario replay(seed, Mode::kReplay);
    const ReplayScenario::Outcome got = replay.Run();
    skipped += replay.skipped();
    largest_skip = std::max(largest_skip, replay.largest_skip());
    EXPECT_GT(got.log.size(), 150u) << "seed " << seed;
    for (const Mode reference : {Mode::kTickByTick, Mode::kPolicy}) {
      const ReplayScenario::Outcome want = ReplayScenario(seed, reference).Run();
      EXPECT_EQ(got.log, want.log) << "seed " << seed;
      EXPECT_EQ(got.misses, want.misses) << "seed " << seed;
      EXPECT_EQ(got.codes, want.codes) << "seed " << seed;
      EXPECT_EQ(got.now, want.now) << "seed " << seed;
    }
  }
  // The replay ran, in whole turns too.
  EXPECT_GT(skipped, 1000u);
  EXPECT_GE(largest_skip, 3u);
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

// Deterministic discrete-event simulation kernel.
//
// All components of the simulated cluster (NIC engines, TCP stacks, executor
// worker contexts) are driven by one Simulator instance: they schedule
// callbacks at virtual times and the kernel dispatches them in (time, seq)
// order, so a run is fully deterministic and independent of wall-clock speed.
// Flag pollers arm ticks instead (ArmPoll): a tick holds the same (time, seq)
// key an event would, but a missed poll re-keys it rather than costing an
// event. Armed ticks wait in one FIFO per re-arm delay (a lane), not in a
// heap: a delay-d FIFO only ever receives keys (now + d, next seq), so it
// stays sorted, and the next tick is the smallest FIFO head.
//
// The change epoch advances on every dispatched event, every fired tick,
// every entry to a Run* call (outside code changes state only between calls)
// and every set_schedule_policy. A miss changes nothing but its poller's own
// accounting, so a poller whose miss repeats (Poller::Result::repeats) would
// miss again, identically, at each tick until the epoch moves. The simulator
// replays such a known miss without calling Tick: it re-keys the tick
// exactly as the miss would and hands the skipped misses back
// (Poller::Skipped). When every tick due before the next event or other
// lane's head is a known miss of one lane, the lane rotates arithmetically,
// r full turns plus a partial one, in one step.
//
// Virtual time is int64 nanoseconds.
#ifndef RDMADL_SRC_SIM_SIMULATOR_H_
#define RDMADL_SRC_SIM_SIMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "src/util/logging.h"
#include "src/util/status.h"

namespace rdmadl {
namespace sim {

// Duration helpers (all return nanoseconds).
constexpr int64_t Nanoseconds(int64_t n) { return n; }
constexpr int64_t Microseconds(double us) { return static_cast<int64_t>(us * 1e3); }
constexpr int64_t Milliseconds(double ms) { return static_cast<int64_t>(ms * 1e6); }
constexpr int64_t Seconds(double s) { return static_cast<int64_t>(s * 1e9); }

// Observes and steers the dispatch loop. The default dispatch order —
// ascending (time, seq) — is what every normal run uses; a policy exists so
// the schedule-space explorer (sim/explore.h) can (a) permute same-timestamp
// ties, the only reorderings that are legal under the cost model, and
// (b) perturb delays at sites that opted in via ScheduleAfterJittered.
// With no policy installed the simulator behaves byte-identically to a
// policy that always picks index 0 and never perturbs.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy();

  // |seqs| holds the seq numbers of every event ready at the earliest queued
  // time, in ascending order (the canonical dispatch order). Returns the
  // index of the event to dispatch next; out-of-range picks fall back to 0.
  // Called only when two or more events tie.
  virtual uint32_t PickTied(const std::vector<uint64_t>& seqs) = 0;

  // May adjust a delay passed to ScheduleAfterJittered (poll intervals, NIC
  // processing overheads — sites where the cost model is a point estimate of
  // a noisy quantity). Must return a value >= 0.
  virtual int64_t PerturbDelay(int64_t delay_ns) { return delay_ns; }

  // Bracket the dispatch of every event (tied or not), so a policy can
  // attribute side effects (e.g. checker-observed memory accesses) to the
  // event that produced them.
  virtual void BeginEvent(int64_t time, uint64_t seq);
  virtual void EndEvent(int64_t time, uint64_t seq);
};

// A flag poller (§4 polling-async) driven by ArmPoll ticks. Tick() runs at
// each armed tick and either reports a miss — nothing changed but the
// poller's own miss accounting — by returning the delay (>= 0) to its next
// tick, or returns kFired after doing work (re-arming itself if it wants to
// keep polling). A poller must outlive every tick it has armed; ArmPoll's
// |keep_alive| can guarantee that.
//
// A miss may report that it repeats: while the simulator's change epoch does
// not move, the next Tick would miss again with the same delay and the same
// accounting. The simulator then runs the ticks that follow as known misses
// and calls Skipped(tag, n) for them instead of Tick, before any other code
// can observe the poller.
class Poller {
 public:
  static constexpr int64_t kFired = -1;

  struct Result {
    Result(int64_t delay, bool repeats = false) : delay(delay), repeats(repeats) {}
    int64_t delay;  // kFired, or the delay to the next tick after a miss.
    bool repeats;   // A miss that repeats until the change epoch moves.
  };

  virtual Result Tick(uint64_t tag) = 0;
  // Accounts |n| repeats of the last miss of the tick tagged |tag|, as |n|
  // Tick calls would have; it may not touch the simulator.
  virtual void Skipped(uint64_t tag, uint64_t n) = 0;

 protected:
  ~Poller() = default;
};

class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() { heap_.reserve(kInitialEventCapacity); }
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current virtual time in nanoseconds.
  int64_t Now() const { return now_; }

  // Schedules |cb| to run at absolute virtual time |time| (>= Now()).
  void ScheduleAt(int64_t time, Callback cb) {
    CHECK_GE(time, now_) << "cannot schedule into the past";
    heap_.push_back(Event{time, next_seq_++, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
  }

  // Schedules |cb| to run |delay| nanoseconds from now.
  void ScheduleAfter(int64_t delay, Callback cb) {
    CHECK_GE(delay, 0);
    ScheduleAt(now_ + delay, std::move(cb));
  }

  // Like ScheduleAfter, but the installed SchedulePolicy (if any) may perturb
  // |delay| within its configured bound. Use at scheduling-noise sites only:
  // poll intervals, processing overheads — never for fabric segment
  // deliveries, whose relative times encode intra-transfer causality.
  void ScheduleAfterJittered(int64_t delay, Callback cb) {
    if (policy_ != nullptr && delay > 0) {
      delay = policy_->PerturbDelay(delay);
      CHECK_GE(delay, 0) << "SchedulePolicy::PerturbDelay returned a negative delay";
    }
    ScheduleAfter(delay, std::move(cb));
  }

  // Arms one tick of |poller|, tagged |tag|, |delay| ns from now, under the
  // (time, seq) key ScheduleAfter (or, if |jittered|,
  // ScheduleAfterJittered) would give an event here. A tick that misses is
  // re-keyed under the next seq at the point where a re-armed event would
  // have taken it, so the dispatch order is that of a poll-event chain; a
  // replayed known miss is re-keyed the same way. The tick queues at the
  // back of |delay|'s lane (a miss moves it to the back of its next delay's
  // lane) and holds |keep_alive| (if set) until it fires or the simulator
  // dies.
  void ArmPoll(int64_t delay, Poller* poller, uint64_t tag, bool jittered,
               std::shared_ptr<void> keep_alive = nullptr);

  // Installs (or clears, with nullptr) the dispatch policy. The policy must
  // outlive every Run/Step call made while it is installed. Under a policy,
  // ticks are ordinary events with the same keys (armed ones move into the
  // event queue here), so the policy sees every poll and no miss is
  // replayed.
  void set_schedule_policy(SchedulePolicy* policy);
  SchedulePolicy* schedule_policy() const { return policy_; }

  // Runs events until the queue drains, |max_events| fire, or Stop() is
  // called. Returns kDeadlineExceeded if the event cap was hit (usually a
  // livelock, e.g. two pollers rescheduling each other forever). Every
  // limit below counts missed poll ticks as events, replayed ones included,
  // and the queue is not drained while a tick is armed.
  Status Run(uint64_t max_events = kDefaultMaxEvents);

  // Runs until virtual time reaches |deadline| (events at t > deadline stay
  // queued), the queue drains, or the event cap is hit.
  Status RunUntil(int64_t deadline, uint64_t max_events = kDefaultMaxEvents);

  // Runs until |done| returns true (checked after every event). |done| may
  // not read a poller's miss accounting: a run of replayed misses is one
  // step here.
  Status RunUntilPredicate(const std::function<bool()>& done,
                           uint64_t max_events = kDefaultMaxEvents);

  // Like RunUntilPredicate, but gives up with kDeadlineExceeded once the next
  // event lies past |deadline| (virtual time advances to the deadline so the
  // caller observes the elapsed budget). Events beyond the deadline stay
  // queued; the caller is expected to abort or drain them.
  Status RunUntilPredicateOrDeadline(const std::function<bool()>& done, int64_t deadline,
                                     uint64_t max_events = kDefaultMaxEvents);

  // Makes the current Run() call return after the in-flight event completes.
  void Stop() { stop_requested_ = true; }

  // Number of events dispatched since construction: scheduled callbacks and
  // poll ticks that fired. A missed poll tick is not an event.
  uint64_t events_dispatched() const { return events_dispatched_; }

  bool empty() const { return heap_.empty() && num_ticks_ == 0; }

  // Cap on events per Run* call, missed poll ticks included: a poller that
  // never fires still ends in kDeadlineExceeded.
  static constexpr uint64_t kDefaultMaxEvents = 500'000'000;

  // Backing storage reserved up front: a steady-state training step keeps
  // hundreds of events in flight, and reserving once avoids the repeated
  // grow-and-move reallocations in the first moments of every simulation.
  static constexpr size_t kInitialEventCapacity = 1024;

 private:
  struct Event {
    int64_t time;
    uint64_t seq;  // Tie-break so equal-time events run in schedule order.
    Callback cb;

    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  // A (time, seq) key.
  struct Key {
    int64_t time;
    uint64_t seq;
  };

  static constexpr int64_t kNoLimit = std::numeric_limits<int64_t>::max();

  // An armed poll tick: the (time, seq) key of the event it stands for.
  struct PollTick {
    int64_t time;
    uint64_t seq;
    Poller* poller;
    uint64_t tag;
    bool jittered;
    // Whether the tick's last miss repeats while the change epoch is |epoch|.
    bool repeats;
    uint64_t epoch;
    std::shared_ptr<void> keep_alive;
  };

  // A FIFO of ticks in a ring buffer whose capacity only grows (a power of
  // two), so queueing, firing and replaying ticks allocate nothing once a
  // lane has held its most ticks. Index 0 is the front.
  class TickRing {
   public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    PollTick& operator[](size_t i) { return slots_[(head_ + i) & (slots_.size() - 1)]; }
    PollTick& front() { return slots_[head_]; }
    const PollTick& front() const { return slots_[head_]; }
    PollTick& back() { return (*this)[size_ - 1]; }
    void push_back(PollTick tick);
    // Drops the front tick, releasing what it keeps alive.
    void pop_front();
    // Moves the front tick to the back. In a full ring that is only the
    // head advancing.
    void Rotate();
    void clear() {
      while (!empty()) pop_front();
    }

   private:
    std::vector<PollTick> slots_;
    size_t head_ = 0;
    size_t size_ = 0;
  };

  // The armed ticks of one re-arm delay, in ascending (time, seq) order:
  // every tick enters at the back under (now + delay, next seq), and
  // neither term ever decreases. An empty lane is reused for the next new
  // delay, so there are never more lanes than distinct delays armed at once.
  struct TickLane {
    int64_t delay = 0;
    TickRing ticks;
  };

  // The event that runs |poller|'s tick under a policy.
  Callback TickEvent(Poller* poller, uint64_t tag, bool jittered,
                     std::shared_ptr<void> keep_alive);

  // Pops and dispatches one event or poll tick, whichever has the smaller
  // key, or replays a run of known misses: at most |budget| ticks, none
  // later than |limit|. Returns the loop iterations the one-at-a-time
  // dispatch would have spent, 0 when both queues are empty.
  uint64_t Step(uint64_t budget, int64_t limit);

  // The start of every Run* call: outside code may have changed state.
  void Enter() {
    stop_requested_ = false;
    ++epoch_;
  }

  bool KnownMiss(const PollTick& tick) const { return tick.repeats && tick.epoch == epoch_; }

  // Replays the known misses at the head of |lane| (its head is the next
  // thing due and a known miss) that precede every other queued key, within
  // |budget| ticks and |limit|. Returns how many ticks it replayed.
  uint64_t ReplayMisses(size_t lane, uint64_t budget, int64_t limit);

  // The lane whose head is the earliest armed tick (callers must check
  // num_ticks_ is non-zero).
  size_t EarliestLane() const;

  // The lane ticks re-armed with |delay| queue on.
  TickLane& LaneFor(int64_t delay);

  // Runs the head of |lane|, the earliest armed tick.
  void StepTick(size_t lane);

  // Step() with a SchedulePolicy installed: gathers the group of events tied
  // at the earliest time and lets the policy pick which one runs.
  bool StepWithPolicy();

  // Whether |a|'s (time, seq) key precedes |b|'s (events and ticks).
  template <typename A, typename B>
  static bool Before(const A& a, const B& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }

  // Whether the head of |lane| precedes the earliest event.
  bool TickIsNext(size_t lane) const {
    return heap_.empty() || Before(lanes_[lane].ticks.front(), heap_.front());
  }

  // Time of the earliest queued event or tick (callers must check empty()
  // first).
  int64_t NextTime() const {
    if (num_ticks_ == 0) return heap_.front().time;
    const int64_t tick = lanes_[EarliestLane()].ticks.front().time;
    return heap_.empty() ? tick : std::min(tick, heap_.front().time);
  }

  int64_t now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_dispatched_ = 0;
  uint64_t epoch_ = 0;  // The change epoch.
  bool stop_requested_ = false;
  // Min-heap on (time, seq) over an explicitly managed vector: identical
  // dispatch order to the std::priority_queue it replaces, but the capacity
  // is reserved up front, popping moves the callback out without the
  // const_cast a priority_queue's const top() forces, and the vector's
  // capacity survives drain/refill cycles.
  std::vector<Event> heap_;
  // The armed poll ticks, one FIFO per re-arm delay; all empty under a
  // policy. |num_ticks_| counts them across lanes.
  std::vector<TickLane> lanes_;
  size_t num_ticks_ = 0;
  SchedulePolicy* policy_ = nullptr;
  // Scratch for StepWithPolicy, kept as members so their capacity survives
  // across steps (the policy path re-heapifies the unchosen tie members).
  std::vector<Event> tie_events_;
  std::vector<uint64_t> tie_seqs_;
};

}  // namespace sim
}  // namespace rdmadl

#endif  // RDMADL_SRC_SIM_SIMULATOR_H_

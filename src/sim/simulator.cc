#include "src/sim/simulator.h"

#include <utility>

namespace rdmadl {
namespace sim {

SchedulePolicy::~SchedulePolicy() = default;
void SchedulePolicy::BeginEvent(int64_t /*time*/, uint64_t /*seq*/) {}
void SchedulePolicy::EndEvent(int64_t /*time*/, uint64_t /*seq*/) {}

void Simulator::ArmPoll(int64_t delay, Poller* poller, uint64_t tag, bool jittered,
                        std::shared_ptr<void> keep_alive) {
  if (policy_ != nullptr) {
    Callback cb = TickEvent(poller, tag, jittered, std::move(keep_alive));
    if (jittered) {
      ScheduleAfterJittered(delay, std::move(cb));
    } else {
      ScheduleAfter(delay, std::move(cb));
    }
    return;
  }
  CHECK_GE(delay, 0);
  LaneFor(delay).ticks.push_back(
      PollTick{now_ + delay, next_seq_++, poller, tag, jittered, std::move(keep_alive)});
  ++num_ticks_;
}

Simulator::TickLane& Simulator::LaneFor(int64_t delay) {
  TickLane* empty = nullptr;
  for (TickLane& lane : lanes_) {
    if (lane.delay == delay) return lane;
    if (empty == nullptr && lane.ticks.empty()) empty = &lane;
  }
  if (empty == nullptr) empty = &lanes_.emplace_back();
  empty->delay = delay;
  return *empty;
}

size_t Simulator::EarliestLane() const {
  size_t best = lanes_.size();
  for (size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].ticks.empty()) continue;
    if (best == lanes_.size() || Before(lanes_[i].ticks.front(), lanes_[best].ticks.front())) {
      best = i;
    }
  }
  return best;
}

Simulator::Callback Simulator::TickEvent(Poller* poller, uint64_t tag, bool jittered,
                                         std::shared_ptr<void> keep_alive) {
  return [this, poller, tag, jittered, keep_alive = std::move(keep_alive)] {
    const int64_t next = poller->Tick(tag);
    if (next != Poller::kFired) ArmPoll(next, poller, tag, jittered, keep_alive);
  };
}

void Simulator::set_schedule_policy(SchedulePolicy* policy) {
  policy_ = policy;
  if (policy_ == nullptr) return;
  for (TickLane& lane : lanes_) {
    for (PollTick& t : lane.ticks) {
      heap_.push_back(Event{t.time, t.seq,
                            TickEvent(t.poller, t.tag, t.jittered, std::move(t.keep_alive))});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
    }
    lane.ticks.clear();
  }
  num_ticks_ = 0;
}

void Simulator::StepTick(size_t lane) {
  const PollTick& tick = lanes_[lane].ticks.front();
  CHECK_GE(tick.time, now_);
  now_ = tick.time;
  const int64_t next = tick.poller->Tick(tick.tag);
  CHECK(policy_ == nullptr) << "a poll tick may not install a SchedulePolicy";
  // Ticks armed during Tick() joined the backs of their lanes (lanes_ may
  // have grown), so this one is still the front of lanes_[lane].
  std::deque<PollTick>& ticks = lanes_[lane].ticks;
  if (next == Poller::kFired) {
    ++events_dispatched_;
    ticks.pop_front();
    --num_ticks_;
    return;
  }
  // A miss: re-key the tick where the re-armed event would have taken its
  // seq (no policy is installed, so a jittered delay stays as it is), at the
  // back of its new delay's lane.
  CHECK_GE(next, 0);
  PollTick rearmed = std::move(ticks.front());
  ticks.pop_front();
  rearmed.time = now_ + next;
  rearmed.seq = next_seq_++;
  LaneFor(next).ticks.push_back(std::move(rearmed));
}

bool Simulator::Step() {
  if (policy_ != nullptr) return StepWithPolicy();
  if (num_ticks_ > 0) {
    const size_t lane = EarliestLane();
    if (TickIsNext(lane)) {
      StepTick(lane);
      return true;
    }
  }
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  CHECK_GE(ev.time, now_);
  now_ = ev.time;
  ++events_dispatched_;
  ev.cb();
  return true;
}

bool Simulator::StepWithPolicy() {
  if (heap_.empty()) return false;
  // Gather every event tied at the earliest queued time. Heap pops among
  // equal times come out in ascending seq order, so index i of the group is
  // the i-th event of the canonical schedule.
  tie_events_.clear();
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
  tie_events_.push_back(std::move(heap_.back()));
  heap_.pop_back();
  const int64_t time = tie_events_.front().time;
  while (!heap_.empty() && heap_.front().time == time) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
    tie_events_.push_back(std::move(heap_.back()));
    heap_.pop_back();
  }
  uint32_t pick = 0;
  if (tie_events_.size() > 1) {
    tie_seqs_.clear();
    for (const Event& ev : tie_events_) tie_seqs_.push_back(ev.seq);
    pick = policy_->PickTied(tie_seqs_);
    if (pick >= tie_events_.size()) pick = 0;
  }
  Event ev = std::move(tie_events_[pick]);
  for (size_t i = 0; i < tie_events_.size(); ++i) {
    if (i == pick) continue;
    heap_.push_back(std::move(tie_events_[i]));
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
  }
  tie_events_.clear();
  CHECK_GE(ev.time, now_);
  now_ = ev.time;
  ++events_dispatched_;
  policy_->BeginEvent(ev.time, ev.seq);
  ev.cb();
  // The callback may legitimately uninstall the policy (end of a replay).
  if (policy_ != nullptr) policy_->EndEvent(ev.time, ev.seq);
  return true;
}

Status Simulator::Run(uint64_t max_events) {
  stop_requested_ = false;
  uint64_t fired = 0;
  while (!stop_requested_) {
    if (fired++ >= max_events) {
      return Status(StatusCode::kDeadlineExceeded,
                    "simulator event cap hit; likely a polling livelock");
    }
    if (!Step()) break;
  }
  return OkStatus();
}

Status Simulator::RunUntil(int64_t deadline, uint64_t max_events) {
  stop_requested_ = false;
  uint64_t fired = 0;
  while (!stop_requested_ && !empty() && NextTime() <= deadline) {
    if (fired++ >= max_events) {
      return Status(StatusCode::kDeadlineExceeded,
                    "simulator event cap hit; likely a polling livelock");
    }
    Step();
  }
  if (now_ < deadline) now_ = deadline;  // Idle time passes even with nothing scheduled.
  return OkStatus();
}

Status Simulator::RunUntilPredicate(const std::function<bool()>& done, uint64_t max_events) {
  stop_requested_ = false;
  uint64_t fired = 0;
  while (!stop_requested_ && !done()) {
    if (fired++ >= max_events) {
      return Status(StatusCode::kDeadlineExceeded,
                    "simulator event cap hit; likely a polling livelock");
    }
    if (!Step()) {
      return Status(StatusCode::kFailedPrecondition,
                    "event queue drained before predicate became true");
    }
  }
  return OkStatus();
}

Status Simulator::RunUntilPredicateOrDeadline(const std::function<bool()>& done,
                                              int64_t deadline, uint64_t max_events) {
  stop_requested_ = false;
  uint64_t fired = 0;
  while (!stop_requested_ && !done()) {
    if (fired++ >= max_events) {
      return Status(StatusCode::kDeadlineExceeded,
                    "simulator event cap hit; likely a polling livelock");
    }
    if (empty()) {
      return Status(StatusCode::kFailedPrecondition,
                    "event queue drained before predicate became true");
    }
    if (NextTime() > deadline) {
      if (now_ < deadline) now_ = deadline;
      return Status(StatusCode::kDeadlineExceeded,
                    "virtual-time deadline reached before predicate became true");
    }
    Step();
  }
  return OkStatus();
}

}  // namespace sim
}  // namespace rdmadl

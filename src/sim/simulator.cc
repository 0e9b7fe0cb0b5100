#include "src/sim/simulator.h"

#include <limits>
#include <utility>

namespace rdmadl {
namespace sim {
namespace {

Status EventCapHit() {
  return Status(StatusCode::kDeadlineExceeded,
                "simulator event cap hit; likely a polling livelock");
}

}  // namespace

SchedulePolicy::~SchedulePolicy() = default;
void SchedulePolicy::BeginEvent(int64_t /*time*/, uint64_t /*seq*/) {}
void SchedulePolicy::EndEvent(int64_t /*time*/, uint64_t /*seq*/) {}

void Simulator::TickRing::push_back(PollTick tick) {
  if (size_ == slots_.size()) {
    std::vector<PollTick> grown(std::max<size_t>(8, 2 * slots_.size()));
    for (size_t i = 0; i < size_; ++i) grown[i] = std::move((*this)[i]);
    slots_ = std::move(grown);
    head_ = 0;
  }
  (*this)[size_++] = std::move(tick);
}

void Simulator::TickRing::pop_front() {
  slots_[head_].keep_alive.reset();
  head_ = (head_ + 1) & (slots_.size() - 1);
  --size_;
}

void Simulator::TickRing::Rotate() {
  if (size_ < slots_.size()) (*this)[size_] = std::move(slots_[head_]);
  head_ = (head_ + 1) & (slots_.size() - 1);
}

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
  LaneFor(delay).ticks.push_back(PollTick{now_ + delay, next_seq_++, poller, tag, jittered,
                                          /*repeats=*/false, /*epoch=*/0,
                                          std::move(keep_alive)});
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
    const int64_t next = poller->Tick(tag).delay;
    if (next != Poller::kFired) ArmPoll(next, poller, tag, jittered, keep_alive);
  };
}

void Simulator::set_schedule_policy(SchedulePolicy* policy) {
  policy_ = policy;
  ++epoch_;
  if (policy_ == nullptr) return;
  for (TickLane& lane : lanes_) {
    for (size_t i = 0; i < lane.ticks.size(); ++i) {
      PollTick& t = lane.ticks[i];
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
  const Poller::Result next = tick.poller->Tick(tick.tag);
  CHECK(policy_ == nullptr) << "a poll tick may not install a SchedulePolicy";
  // Ticks armed during Tick() joined the backs of their lanes (lanes_ may
  // have grown), so this one is still the front of lanes_[lane].
  TickRing& ticks = lanes_[lane].ticks;
  if (next.delay == Poller::kFired) {
    ++events_dispatched_;
    ++epoch_;
    ticks.pop_front();
    --num_ticks_;
    return;
  }
  // A miss: re-key the tick where the re-armed event would have taken its
  // seq (no policy is installed, so a jittered delay stays as it is), at the
  // back of its new delay's lane.
  CHECK_GE(next.delay, 0);
  const auto rekey = [&](PollTick& t) {
    t.time = now_ + next.delay;
    t.seq = next_seq_++;
    t.repeats = next.repeats;
    t.epoch = epoch_;
  };
  if (next.delay == lanes_[lane].delay) {
    ticks.Rotate();
    rekey(ticks.back());
    return;
  }
  PollTick rearmed = std::move(ticks.front());
  ticks.pop_front();
  rekey(rearmed);
  LaneFor(next.delay).ticks.push_back(std::move(rearmed));
}

uint64_t Simulator::ReplayMisses(size_t lane_index, uint64_t budget, int64_t limit) {
  // The earliest key queued outside the lane: the lane's ticks replay, in
  // lane order, only while they precede it.
  Key horizon{std::numeric_limits<int64_t>::max(), std::numeric_limits<uint64_t>::max()};
  if (!heap_.empty()) horizon = Key{heap_.front().time, heap_.front().seq};
  for (size_t i = 0; i < lanes_.size(); ++i) {
    if (i == lane_index || lanes_[i].ticks.empty()) continue;
    const PollTick& head = lanes_[i].ticks.front();
    if (Before(head, horizon)) horizon = Key{head.time, head.seq};
  }
  TickRing& ticks = lanes_[lane_index].ticks;
  const int64_t delay = lanes_[lane_index].delay;
  const uint64_t size = ticks.size();
  uint64_t replayed = 0;
  // Replays the head, if it is due: it misses again and is re-keyed where
  // that miss would re-key it, at the back of the lane.
  const auto replay_head = [&] {
    const PollTick& head = ticks.front();
    if (replayed == budget || !KnownMiss(head) || head.time > limit || !Before(head, horizon)) {
      return false;
    }
    ticks.Rotate();
    PollTick& t = ticks.back();
    t.time += delay;
    t.seq = next_seq_++;
    ++replayed;
    return true;
  };
  while (replayed < size && replay_head()) {
  }
  if (replayed == size) {
    // Every tick of the lane is a known miss under a seq newer than any
    // other queued key, so a whole turn replays while its latest tick (the
    // back) is due before the horizon's time and by |limit|. r turns add
    // r * delay to every time and hand out r * size seqs in lane order.
    int64_t last = std::min(limit, horizon.time - 1);
    last = std::min(last, std::numeric_limits<int64_t>::max() - delay);
    const int64_t back = ticks.back().time;
    uint64_t turns = back > last ? 0 : (budget - replayed) / size;
    if (delay > 0 && turns > 0) {
      turns = std::min(turns, static_cast<uint64_t>((last - back) / delay) + 1);
    }
    if (turns > 0) {
      const int64_t shift = static_cast<int64_t>(turns) * delay;
      uint64_t seq = next_seq_ + (turns - 1) * size;
      for (size_t i = 0; i < size; ++i) {
        ticks[i].time += shift;
        ticks[i].seq = seq++;
      }
      next_seq_ += turns * size;
      replayed += turns * size;
    }
    while (replay_head()) {
    }
  }
  CHECK_GT(replayed, 0u) << "the lane's head was not due";
  // The latest replay was the back tick's, one delay before its new time.
  CHECK_GE(ticks.back().time - delay, now_);
  now_ = ticks.back().time - delay;
  // Every tick missed replayed / size times, and the replayed % size ticks
  // at the back, replayed last, once more.
  const uint64_t each = replayed / size, extra = replayed % size;
  for (uint64_t i = each == 0 ? size - extra : 0; i < size; ++i) {
    ticks[i].poller->Skipped(ticks[i].tag, each + (i >= size - extra ? 1 : 0));
  }
  return replayed;
}

uint64_t Simulator::Step(uint64_t budget, int64_t limit) {
  if (policy_ != nullptr) return StepWithPolicy() ? 1 : 0;
  if (num_ticks_ > 0) {
    const size_t lane = EarliestLane();
    if (TickIsNext(lane)) {
      if (KnownMiss(lanes_[lane].ticks.front())) return ReplayMisses(lane, budget, limit);
      StepTick(lane);
      return 1;
    }
  }
  if (heap_.empty()) return 0;
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  CHECK_GE(ev.time, now_);
  now_ = ev.time;
  ++events_dispatched_;
  ++epoch_;
  ev.cb();
  return 1;
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
  ++epoch_;
  policy_->BeginEvent(ev.time, ev.seq);
  ev.cb();
  // The callback may legitimately uninstall the policy (end of a replay).
  if (policy_ != nullptr) policy_->EndEvent(ev.time, ev.seq);
  return true;
}

Status Simulator::Run(uint64_t max_events) {
  Enter();
  uint64_t fired = 0;
  while (!stop_requested_) {
    if (fired >= max_events) return EventCapHit();
    const uint64_t n = Step(max_events - fired, kNoLimit);
    if (n == 0) break;
    fired += n;
  }
  return OkStatus();
}

Status Simulator::RunUntil(int64_t deadline, uint64_t max_events) {
  Enter();
  uint64_t fired = 0;
  while (!stop_requested_ && !empty() && NextTime() <= deadline) {
    if (fired >= max_events) return EventCapHit();
    fired += Step(max_events - fired, deadline);
  }
  if (now_ < deadline) now_ = deadline;  // Idle time passes even with nothing scheduled.
  return OkStatus();
}

Status Simulator::RunUntilPredicate(const std::function<bool()>& done, uint64_t max_events) {
  Enter();
  uint64_t fired = 0;
  while (!stop_requested_ && !done()) {
    if (fired >= max_events) return EventCapHit();
    const uint64_t n = Step(max_events - fired, kNoLimit);
    if (n == 0) {
      return Status(StatusCode::kFailedPrecondition,
                    "event queue drained before predicate became true");
    }
    fired += n;
  }
  return OkStatus();
}

Status Simulator::RunUntilPredicateOrDeadline(const std::function<bool()>& done,
                                              int64_t deadline, uint64_t max_events) {
  Enter();
  uint64_t fired = 0;
  while (!stop_requested_ && !done()) {
    if (fired >= max_events) return EventCapHit();
    if (empty()) {
      return Status(StatusCode::kFailedPrecondition,
                    "event queue drained before predicate became true");
    }
    if (NextTime() > deadline) {
      if (now_ < deadline) now_ = deadline;
      return Status(StatusCode::kDeadlineExceeded,
                    "virtual-time deadline reached before predicate became true");
    }
    fired += Step(max_events - fired, deadline);
  }
  return OkStatus();
}

}  // namespace sim
}  // namespace rdmadl

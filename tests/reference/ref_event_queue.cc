#include "reference/ref_event_queue.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"

namespace p2p::simref {
namespace {

void CheckTime(Time t) {
  P2P_CHECK_MSG(std::isfinite(t) && t >= 0.0, "bad event time " << t);
}

}  // namespace

EventId EventQueue::Schedule(Time t, Callback cb, std::uint64_t tag) {
  P2P_CHECK(static_cast<bool>(cb));
  CheckTime(t);
  const EventId id = next_id_++;
  Record& r = records_[id];
  r.time = t;
  r.tag = tag;
  r.fn = std::move(cb);
  Push(id, r);
  ++live_;
  return id;
}

EventId EventQueue::SchedulePeriodic(Time first, Time period, Callback cb) {
  P2P_CHECK(static_cast<bool>(cb));
  CheckTime(first);
  P2P_CHECK(std::isfinite(period) && period > 0.0);
  const EventId id = next_id_++;
  Record& r = records_[id];
  r.time = first;
  r.period = period;
  r.fn = std::move(cb);
  Push(id, r);
  ++live_;
  return id;
}

bool EventQueue::Cancel(EventId id) {
  const auto it = records_.find(id);
  if (it == records_.end()) return false;
  Record& r = it->second;
  switch (r.state) {
    case State::kScheduled:
      records_.erase(it);  // its heap entry is now dead
      --live_;
      return true;
    case State::kFiring:  // periodic, from inside its own callback
      r.state = State::kStopped;
      --live_;
      return true;
    case State::kStopped:
      return false;
  }
  return false;
}

bool EventQueue::Rearm(EventId id, Time t) {
  const auto it = records_.find(id);
  if (it == records_.end()) return false;
  CheckTime(t);
  Record& r = it->second;
  switch (r.state) {
    case State::kScheduled:
      r.time = t;
      Push(id, r);  // fresh seq: the old entry is now dead
      return true;
    case State::kFiring:
      r.time = t;
      r.rearmed = true;
      return true;
    case State::kStopped:
      return false;
  }
  return false;
}

Time EventQueue::PeekTime() {
  P2P_CHECK(!empty());
  DropDeadHead();
  return heap_.front().time;
}

EventQueue::Fired EventQueue::Pop() {
  P2P_CHECK(!empty());
  DropDeadHead();
  const EventId id = heap_.front().id;
  std::pop_heap(heap_.begin(), heap_.end(), FiresLater);
  heap_.pop_back();
  const auto it = records_.find(id);
  Record& r = it->second;
  Fired fired;
  fired.time = r.time;
  fired.id = id;
  if (r.period > 0.0) {
    r.state = State::kFiring;
    fired.periodic = &r.fn;
  } else {
    fired.tag = r.tag;
    fired.cb = std::move(r.fn);
    records_.erase(it);
    --live_;
  }
  return fired;
}

bool EventQueue::FinishPeriodic(EventId id) {
  const auto it = records_.find(id);
  P2P_CHECK(it != records_.end());
  Record& r = it->second;
  if (r.state == State::kStopped) {
    records_.erase(it);
    return false;
  }
  P2P_CHECK(r.state == State::kFiring);
  if (!r.rearmed) r.time += r.period;
  r.rearmed = false;
  r.state = State::kScheduled;
  Push(id, r);
  return true;
}

bool EventQueue::Live(const Entry& e) const {
  const auto it = records_.find(e.id);
  return it != records_.end() && it->second.state == State::kScheduled &&
         it->second.seq == e.seq;
}

void EventQueue::Push(EventId id, Record& r) {
  r.seq = next_seq_++;
  heap_.push_back(Entry{r.time, r.seq, id});
  std::push_heap(heap_.begin(), heap_.end(), FiresLater);
}

void EventQueue::DropDeadHead() {
  while (!heap_.empty() && !Live(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), FiresLater);
    heap_.pop_back();
  }
  P2P_CHECK(!heap_.empty());
}

}  // namespace p2p::simref

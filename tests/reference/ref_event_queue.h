// Reference scheduler for the timing wheel's differential tests: a plain
// (time, seq) binary min-heap with lazy cancellation — the structure
// sim::EventQueue carried as its second backend until the wheel became its
// only ordering structure. tests/sim_kernel_test.cc drives both through
// identical randomized workloads and compares every observable.
//
// Same surface and the same contract as sim::EventQueue, so the two pop
// identical (time, seq) streams:
//   * one seq per Schedule, SchedulePeriodic, Rearm of a pending event and
//     FinishPeriodic (the re-arm after a periodic callback ran);
//   * periodic deadlines accumulate += period from the scheduled time, a
//     Rearm from inside the timer's own callback overrides one re-arm, and
//     a Cancel from inside it stops the timer;
//   * PopAllUpTo presents every firing through Fired::periodic and
//     re-arms periodics itself; a one-shot is gone before its callback
//     runs (Cancel/Rearm on its id report false).
// Only the id numbering differs (a counter here, generation-packed slab
// indices there), which the tests map pairwise.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "util/inline_fn.h"

namespace p2p::simref {

using sim::EventId;
using sim::Time;

class EventQueue {
 public:
  using Callback = util::InlineFn;
  using Fired = sim::EventQueue::Fired;

  EventId Schedule(Time t, Callback cb, std::uint64_t tag = 0);
  EventId SchedulePeriodic(Time first, Time period, Callback cb);
  bool Cancel(EventId id);
  bool Rearm(EventId id, Time t);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  // Requires !empty().
  Time PeekTime();
  Fired Pop();
  bool FinishPeriodic(EventId id);

  template <typename F>
  void PopAllUpTo(Time t_end, F&& sink) {
    while (!empty() && PeekTime() <= t_end) {
      Fired fired = Pop();
      if (fired.is_periodic()) {
        sink(fired);
        FinishPeriodic(fired.id);
      } else {
        Callback cb = std::move(fired.cb);
        fired.periodic = &cb;
        sink(fired);
      }
    }
  }

 private:
  enum class State { kScheduled, kFiring, kStopped };
  struct Record {
    Time time = 0.0;
    std::uint64_t seq = 0;
    Time period = 0.0;  // > 0 for periodic timers
    std::uint64_t tag = 0;
    State state = State::kScheduled;
    bool rearmed = false;  // Rearm()ed from inside its own callback
    Callback fn;
  };
  struct Entry {
    Time time;
    std::uint64_t seq;
    EventId id;
  };

  // std::push_heap builds a max-heap; "fires later" keeps the earliest
  // (time, seq) at the front.
  static bool FiresLater(const Entry& a, const Entry& b) {
    return a.time > b.time || (a.time == b.time && a.seq > b.seq);
  }
  // Heap entries name one occurrence; re-arms and cancels leave the old
  // entry behind, dead, until it surfaces.
  bool Live(const Entry& e) const;
  void Push(EventId id, Record& r);
  void DropDeadHead();

  // Node-based: a firing periodic's callback stays put while it schedules.
  std::unordered_map<EventId, Record> records_;
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 1;
  EventId next_id_ = 1;
  std::size_t live_ = 0;
};

}  // namespace p2p::simref

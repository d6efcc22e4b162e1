// Discrete-event scheduler: the kernel hot path of every simulation.
//
// Events are (time, seq)-ordered; ties on time break by insertion order
// (seq), which makes simulations deterministic. The ordering structure is a
// hierarchical timing wheel (Varghese & Lauck): three levels of 256
// power-of-two-millisecond buckets (1 ms / 256 ms / 65,536 ms per slot,
// ~4.7 h horizon), entries cascading down as the clock approaches, with a
// far-future overflow min-heap beyond the horizon. Schedule/cancel/pop are
// amortized O(1) for the timer-heavy workloads the protocol stack
// generates.
//
// tests/sim_kernel_test.cc drives the wheel against a plain (time, seq)
// binary heap kept in tests/reference/ref_event_queue.{h,cc} — randomized
// differential runs over schedule/cancel/rearm/periodic/batched drains —
// so the pop order is pinned to the textbook structure it replaced.
//
// Event records live in a slab (stable storage, freelist-recycled) and
// callbacks are util::InlineFn, so steady-state scheduling performs no
// allocation for closures up to 48 bytes. Periodic timers are first-class:
// SchedulePeriodic keeps one record alive across firings and Rearm/
// FinishPeriodic move its deadline in place, replacing the historical
// cancel-and-reschedule churn.
//
// Ordering contract: callers never schedule earlier than the time of the
// last popped event. The owning Simulation enforces t >= now; the raw
// queue CHECKs only t >= 0 and finiteness.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <type_traits>
#include <vector>

#include "util/check.h"
#include "util/inline_fn.h"

namespace p2p::sim {

// Simulated time in milliseconds. All paper parameters (link latencies,
// heartbeat periods, SOMO reporting intervals) are given in ms or s.
using Time = double;

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  using Callback = util::InlineFn;

  EventQueue() = default;

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedule `cb` at absolute time `t` (must be finite, >= 0, and >= the
  // last popped event's time — the owning Simulation enforces the
  // stronger t >= now). Returns an id usable with Cancel()/Rearm().
  // `tag` is an opaque word stored in the event record and handed back in
  // Fired::tag when the event fires (the Transport packs a message's
  // delivery accounting into it); the queue never interprets it.
  EventId Schedule(Time t, Callback cb, std::uint64_t tag = 0);

  // First-class periodic timer: fires at `first`, then every `period` ms.
  // The callback is stored once for the timer's whole lifetime; each
  // firing re-arms the same record in place (fresh seq, no reallocation).
  // Cancel(id) stops future firings; Rearm(id, t) moves the next deadline.
  EventId SchedulePeriodic(Time first, Time period, Callback cb);

  // Cancel a pending event (or stop a periodic timer, including from
  // inside its own callback). Returns false if the event already fired,
  // was already cancelled, or never existed.
  bool Cancel(EventId id);

  // Move a pending event's (or a periodic timer's next) deadline to `t`
  // in place: same id, same stored callback, fresh FIFO seq — the
  // allocation-free replacement for Cancel+Schedule. Also valid from
  // inside a periodic timer's own callback (overrides the deadline+period
  // re-arm). Returns false for unknown/already-fired ids.
  bool Rearm(EventId id, Time t);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  // Entries currently held by the wheel, live or cancelled. Bounded by
  // 2 * size() + 1 (buckets cancel eagerly; only the overflow heap carries
  // garbage, and it compacts at the half-full mark).
  std::size_t heap_footprint() const;

  // Time of the earliest live event. Requires !empty().
  Time PeekTime() const;

  // Pop the earliest live event. Requires !empty().
  //
  // One-shot events hand their callback out by move (`cb`). Periodic
  // events instead expose a pointer to the stored callback (`periodic`,
  // stable for the duration of the firing); after running it the driver
  // must call FinishPeriodic(id) to re-arm the timer.
  struct Fired {
    Time time = 0.0;
    EventId id = kInvalidEventId;
    std::uint64_t tag = 0;  // the one-shot's Schedule tag; 0 for periodics
    Callback cb;
    Callback* periodic = nullptr;
    bool is_periodic() const { return periodic != nullptr; }
  };
  Fired Pop();

  // Complete a periodic firing: re-arms the timer at deadline + period
  // (or at the Rearm()ed time) unless it was cancelled from inside the
  // callback. Returns true when the timer is live again.
  bool FinishPeriodic(EventId id);

  // Drain every event with time <= t_end into `sink`, in (time, seq)
  // order — the wheel walks its due-run cursor inline instead of paying a
  // peek+pop round trip per event. EVERY firing — one-shot or
  // periodic — arrives with `periodic` pointing at the stored callback
  // (invoke-in-place: no 64-byte closure move per event); the sink runs
  // it through the pointer and must NOT call FinishPeriodic. One-shot
  // records are recycled after the sink returns (Cancel/Rearm on the
  // firing id report false, as if a Pop() driver had already freed it);
  // periodics are re-armed internally. Events the sink's callbacks
  // schedule at times <= t_end fire within the same drain, exactly as a
  // Pop() loop would.
  using SinkFn = void (*)(void* ctx, Fired& fired);
  void PopAllUpTo(Time t_end, void* ctx, SinkFn sink);

  template <typename F>
  void PopAllUpTo(Time t_end, F&& f) {
    PopAllUpTo(t_end, &f, [](void* ctx, Fired& fired) {
      (*static_cast<std::remove_reference_t<F>*>(ctx))(fired);
    });
  }

  // Slab footprint introspection: current record capacity, the most
  // records ever live at once, and the live count. Long simulations with
  // bursty phases (mass joins, churn storms) can watch slab_capacity()
  // fall back toward slab_high_water() / live after the burst drains —
  // FreeSlot opportunistically trims trailing free records.
  std::size_t slab_capacity() const { return slab_.size(); }
  std::size_t slab_high_water() const { return slab_hwm_; }

 private:
  enum class State : std::uint8_t {
    kFree,       // slab record on the freelist
    kScheduled,  // placed in the wheel
    kFiring,     // periodic popped, callback running, awaiting FinishPeriodic
    kStopped,    // periodic cancelled while firing; freed by FinishPeriodic
  };

  // Hot-field split, round two. Everything the queue machinery reads
  // about a pending event — ordering keys, generation, lifecycle state,
  // freelist link, and the wheel's location word — packs into one
  // 32-byte Key record (keys_ below), two per cache line, so serving a
  // wheel tick or recycling a fired record touches ONE line of metadata
  // instead of gathering time/seq/state/location from four parallel
  // arrays at random slot indices. What remains in the slab record is
  // exactly what the firing itself touches: the callback and one word (a
  // periodic's period or a one-shot's tag, told apart by a Key::state
  // bit), packed into a single 64-byte line. Net: one fired one-shot
  // costs two cold lines (key + slab), and everything else it touches
  // rides along for free. The deque keeps callback addresses stable while
  // they run and schedule into a growing slab.
  struct alignas(64) Slot {
    Callback fn;
    union {
      std::uint64_t tag = 0;  // one-shot: Schedule's tag
      Time period;            // periodic: ms between firings
    };
  };
  static_assert(sizeof(Slot) == 64,
                "event slab record must stay one cache line");

  struct alignas(32) Key {
    Time time = 0.0;
    std::uint64_t seq = 0;
    // While scheduled: the wheel's location word (kind, bucket, position;
    // see event_queue.cc). While free: the freelist link.
    std::uint64_t wheel_word = 0;
    std::uint32_t gen = 0;
    // State enum in the low bits, the periodic and rearmed-while-firing
    // flags in the top two (see kPeriodicBit, kRearmedBit).
    std::uint8_t state = 0;
  };
  static_assert(sizeof(Key) == 32,
                "two key records per cache line, never straddling");

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  // Slabs below this size are never trimmed — reclaiming a few KB is not
  // worth the freelist rebuild.
  static constexpr std::size_t kMinTrimSlots = 1024;

  // Ids pack (generation, slab index + 1); generation bumps on every free,
  // so a stale id can never cancel the record's next tenant. The +1 keeps
  // kInvalidEventId (0) unreachable.
  EventId IdOf(std::uint32_t slot) const {
    return (static_cast<EventId>(keys_[slot].gen) << 32) |
           (static_cast<EventId>(slot) + 1);
  }

  // Key::state packs the State enum in the low bits and the periodic and
  // rearmed-while-firing flags in the top two, so a firing touches one
  // byte of metadata — in a line it has already pulled in.
  static constexpr std::uint8_t kPeriodicBit = 0x40;
  static constexpr std::uint8_t kRearmedBit = 0x80;
  static constexpr std::uint8_t kFlagBits = kPeriodicBit | kRearmedBit;
  State state(std::uint32_t slot) const {
    return static_cast<State>(keys_[slot].state & ~kFlagBits);
  }
  void set_state(std::uint32_t slot, State s) {
    keys_[slot].state =
        static_cast<std::uint8_t>(s) | (keys_[slot].state & kFlagBits);
  }
  bool periodic(std::uint32_t slot) const {
    return (keys_[slot].state & kPeriodicBit) != 0;
  }
  bool rearmed_while_firing(std::uint32_t slot) const {
    return (keys_[slot].state & kRearmedBit) != 0;
  }
  void set_rearmed_while_firing(std::uint32_t slot, bool on) {
    if (on) {
      keys_[slot].state |= kRearmedBit;
    } else {
      keys_[slot].state &= static_cast<std::uint8_t>(~kRearmedBit);
    }
  }
  // Returns kNoSlot when the id does not name a current slab record.
  std::uint32_t SlotOf(EventId id) const;

  std::uint32_t AllocSlot();
  void FreeSlot(std::uint32_t slot);
  void MaybeTrimSlab();
  // Fire one already-popped slot through a PopAllUpTo sink.
  void EmitSlot(std::uint32_t slot, void* ctx, SinkFn sink);
  static void CheckTime(Time t);
  // Is occurrence `seq` of slab record `slot` still scheduled? Names one
  // firing of one event, so a stale overflow-heap entry can never
  // resurrect a cancelled or re-armed record.
  bool OccurrenceLive(std::uint32_t slot, std::uint64_t seq) const;

  // The ordering structure (definitions and the full design note in
  // event_queue.cc). It orders slab records only: the records themselves
  // (keys, callbacks, state) belong to the queue, and the wheel reads
  // their keys and fires them through the back-reference.
  class Wheel {
   public:
    explicit Wheel(EventQueue& q);
    // `slot` is kScheduled with its final (time, seq) when Add is called.
    void Add(std::uint32_t slot);
    // Called once the occurrence placed in the wheel is already dead (seq
    // bumped or state changed), so the overflow heap may compact.
    void Remove(std::uint32_t slot);
    std::uint32_t PeekMin();
    std::uint32_t PopMin();
    std::size_t footprint() const;
    void PopAllUpTo(Time t_end, void* ctx, SinkFn sink);

   private:
    // Ordering keys plus slot: the overflow heap's entry and the due
    // run's, so the per-tick sort reads contiguous 24-byte records instead
    // of gathering keys at random slab indices per comparison.
    struct Item {
      Time time;
      std::uint64_t seq;
      std::uint32_t slot;
    };
    Time time_of(std::uint32_t slot) const { return q_.keys_[slot].time; }
    std::uint64_t seq_of(std::uint32_t slot) const {
      return q_.keys_[slot].seq;
    }
    std::uint64_t& word_of(std::uint32_t slot) {
      return q_.keys_[slot].wheel_word;
    }
    void Place(std::uint32_t slot);
    void InsertDue(std::uint32_t slot);
    void ServeBucketAsDue(int idx);
    void CascadeBucket(int idx);
    std::uint32_t MinOfBucket(const std::vector<std::uint32_t>& b) const;
    void SetBit(int bucket);
    void ClearBit(int bucket);
    int FindFirst(int level) const;
    void PopOverflowTop();
    void DropOverflowGarbage();
    void CompactOverflow();

    EventQueue& q_;
    std::uint64_t current_tick_ = 0;
    std::array<std::vector<std::uint32_t>, 768> buckets_;
    std::array<std::uint64_t, 12> occ_{};  // occupancy bitmap, 256 per level
    std::size_t bucket_entries_ = 0;
    std::vector<Item> due_;  // current tick, sorted by (time, seq)
    std::size_t due_cursor_ = 0;
    std::vector<Item> overflow_;  // beyond-horizon min-heap (lazy cancel)
    std::size_t ov_garbage_ = 0;
    std::vector<std::uint32_t> scratch_;
    // Cached result of PeekMin, invalidated by pops and by removal of the
    // cached slot; keeps a peek-then-pop loop O(1) per event.
    std::uint32_t cache_ = kNoSlot;
    Time cache_time_ = 0.0;
  };
  // std::deque: callbacks are invoked through pointers into the slab while
  // the callback itself schedules new events (growing the slab), so
  // records must never move.
  std::deque<Slot> slab_;
  // Slot-indexed record metadata (see Key above). Grown in lockstep with
  // slab_; accessed by index only, so vector reallocation on growth is
  // safe.
  std::vector<Key> keys_;
  // PeekTime is const but fills the wheel's peek cache.
  mutable Wheel wheel_{*this};
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  std::size_t slab_hwm_ = 0;  // peak slab_.size()
  // Generations of trimmed trailing records, by absolute slot index. A
  // record that regrows at a trimmed index resumes from the retired
  // generation, so ids handed out to the pre-trim tenant still fail
  // SlotOf() against the new tenant.
  std::vector<std::uint32_t> retired_gen_;
  std::size_t frees_since_trim_ = 0;
};

}  // namespace p2p::sim

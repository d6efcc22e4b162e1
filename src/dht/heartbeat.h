// Leafset heartbeat protocol (paper §3.1/§4): every node periodically
// heartbeats its leafset members; missed heartbeats drive failure
// detection; the §4 measurement protocols (network coordinates, packet-pair
// bandwidth probing) piggyback on the same messages via observers.
//
// Message delivery runs over the simulation's Transport bus with the
// latency oracle's host-to-host delays, so observers see realistic
// send/receive timestamps — and fault injection (loss, jitter, partitions)
// configured on the bus applies to heartbeats with no protocol changes.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dht/ring.h"
#include "sim/simulation.h"

namespace p2p::dht {

// Namespace-scope (not nested) so it can serve as a defaulted constructor
// argument — GCC rejects brace-defaulting a nested aggregate with default
// member initializers inside its enclosing class.
struct HeartbeatConfig {
  sim::Time period_ms = 1000.0;
  // Declare a member failed after this long without hearing from it.
  sim::Time timeout_ms = 3500.0;
  // Transport fallback one-way delay used when the ring has no latency
  // oracle (passed per send; the bus-wide default stays untouched).
  sim::Time default_delay_ms = 50.0;
  // Failure *suspicion*: also flag members that have been heard from
  // before but have now been silent past timeout_ms, even while they are
  // in fact alive (message loss / jitter makes silence ambiguous). A
  // suspicion of an alive member is a false positive; suspicions clear
  // when the member is heard again. Off by default — the seed behaviour
  // only ever declares genuinely crashed nodes.
  bool suspect_alive = false;
  // When true (default), the first detection of a genuinely dead member
  // triggers ring-wide cleanup (Ring::DetectFailure). Set false to run the
  // detector as a pure sensor: timeouts are still recorded (counters,
  // observers, per-node suspect sets — so the silence shows up in in-band
  // telemetry), but membership repair is left to an external reactor. The
  // in-band alerting experiments use this to make the disseminated SOMO
  // view, not simulator ground truth, the thing that heals the ring.
  bool auto_repair = true;
};

// Modelled heartbeat wire size: the paper pads heartbeats to ~1.5 KB so
// they double as packet-pair probes (§4.2).
inline constexpr std::size_t kHeartbeatBytes = 1500;

class HeartbeatProtocol {
 public:
  using Config = HeartbeatConfig;

  // Called on each heartbeat delivery: (sender, receiver, send_t, recv_t).
  using Observer = std::function<void(NodeIndex, NodeIndex, sim::Time,
                                      sim::Time)>;
  // Called when `detector` times out `dead` (fires once per dead node,
  // at first detection).
  using FailureObserver =
      std::function<void(NodeIndex detector, NodeIndex dead, sim::Time when)>;
  // Called when `detector` starts suspecting `suspect` (suspect_alive
  // mode); `was_alive` marks a false positive.
  using SuspicionObserver = std::function<void(
      NodeIndex detector, NodeIndex suspect, sim::Time when, bool was_alive)>;

  HeartbeatProtocol(sim::Simulation& sim, Ring& ring, Config config = {});

  // Begin periodic heartbeating for every currently-alive node. Nodes that
  // join later are picked up via OnNodeJoined.
  void Start();
  void Stop();

  // Register a node that joined after Start().
  void OnNodeJoined(NodeIndex n);

  // --- sharding -----------------------------------------------------------

  // Bind this instance to one shard of a sim::ShardedSimulation run. Every
  // shard constructs its own HeartbeatProtocol over its own Simulation (and
  // the shared, stabilized Ring); BindShard tells each instance which nodes
  // it owns (`shard_of_host` indexed by ring host, owned by the caller and
  // outliving the protocol) and where its peers live. After binding, Start
  // schedules beats only for owned nodes, and delivery closures
  // target the receiver's owning instance, so all mutable per-node state
  // (slot rows, spill, suspected_) is touched exclusively by its owner's
  // shard thread. Serial runs never call this; an unbound instance owns
  // every node and delivers to itself — the exact seed code path.
  void BindShard(std::uint32_t shard,
                 const std::vector<std::uint32_t>* shard_of_host,
                 std::vector<HeartbeatProtocol*> peers);

  void AddObserver(Observer obs) { observers_.push_back(std::move(obs)); }
  void AddFailureObserver(FailureObserver obs) {
    failure_observers_.push_back(std::move(obs));
  }
  void AddSuspicionObserver(SuspicionObserver obs) {
    suspicion_observers_.push_back(std::move(obs));
  }

  std::size_t heartbeats_sent() const { return sent_; }
  std::size_t heartbeats_delivered() const { return delivered_; }
  std::size_t failures_detected() const { return failures_detected_; }
  // suspect_alive mode only. Suspicions cover both dead members (true
  // positives, also counted in failures_detected) and alive-but-silent
  // ones; a false suspicion targeted a node that was alive when flagged
  // (message loss or jitter starved the detector).
  std::size_t suspicions() const { return suspicions_; }
  std::size_t false_suspicions() const { return false_suspicions_; }

  // Members node n currently suspects (sorted set size): alive-but-silent
  // members in suspect_alive mode, plus timed-out dead members when
  // auto_repair is off. This is the per-node signal HostTelemetry::suspects
  // carries in-band.
  std::size_t suspected_count(NodeIndex n) const {
    if (n >= row_of_.size() || row_of_[n] == kNoRow) return 0;
    return suspected_[row_of_[n]].size();
  }

  sim::Simulation& simulation() { return sim_; }

  const Config& config() const { return config_; }

  // Resident bytes of the detector's tables (slot rows, spill, beat row,
  // suspicion sets, per-node flags) plus this object — feeds the
  // mem.bytes_per_host gauge.
  std::size_t MemoryBytes() const;

 private:
  // One leafset slot of a node's heartbeat row (24 B): the member, its
  // host, when the row's owner last heard from it (kNeverHeard before the
  // first delivery) and the bus's base delay owner -> member, cached from
  // the same Transport::BaseDelayMs the bus would charge per send (-1 when
  // the bus has no oracle: the bus then resolves the fallback itself).
  // `rev` is the owner's slot in the member's row, so the member's
  // delivery stamps it without a search (kNoSlot when the owner is not in
  // the member's leafset).
  struct Slot {
    std::uint32_t member;
    std::uint32_t host : 24;
    std::uint32_t rev : 8;
    sim::Time heard;
    sim::Time delay;
  };
  static_assert(sizeof(Slot) == 24, "heartbeat slots must stay compact");
  // Per-row header: the leafset version the row was built from and the
  // owner's host.
  struct RowHead {
    std::uint32_t version;
    std::uint32_t host;
  };
  static constexpr std::uint32_t kNoRow = 0xffffffffu;
  static constexpr std::uint32_t kEmpty = 0xffffffffu;  // unused slot
  static constexpr std::uint32_t kNoSlot = 0xffu;
  static constexpr sim::Time kNeverHeard = -1.0;

  // Draw node n's random beat phase and insert its first deadline into the
  // cyclic beat row, keeping the walker's wakeup aligned with the earliest
  // entry.
  void InsertBeat(NodeIndex n);
  // Fire every beat whose deadline equals the walker's wakeup time, then
  // reschedule for the next entry.
  void BeatSweep();
  void ScheduleSweep();
  void Beat(NodeIndex n);
  void Deliver(NodeIndex from, NodeIndex to, sim::Time send_time,
               std::uint32_t rev);
  void CheckTimeouts(NodeIndex n, std::uint32_t row);

  // Node n's row index, creating the row on first use and rebuilding it
  // when n's leafset version moved since it was built.
  std::uint32_t RowFor(NodeIndex n) {
    if (n < row_of_.size()) {
      const std::uint32_t row = row_of_[n];
      if (row != kNoRow && heads_[row].version == ring_.leafset_version(n))
        return row;
    }
    return LayOutRow(n);
  }
  std::uint32_t LayOutRow(NodeIndex n);  // RowFor's create/rebuild path
  Slot* SlotsOf(std::uint32_t row) { return rows_.data() + row * width_; }
  // Lay out row `row` from n's current leafset: slot k < r holds the k-th
  // successor, slot r + k the k-th predecessor unless it is also a
  // successor. Heard times carry over from the previous layout (`fresh`
  // false) and the spill; members that left the leafset spill theirs. A
  // relayout starts a crashed newcomer's silence at the layout time.
  void BuildRow(NodeIndex n, std::uint32_t row, bool fresh);
  // n's slot in member m's row (kNoSlot when n is not in m's leafset).
  std::uint32_t ReverseSlot(NodeIndex m, NodeIndex n) const;
  static std::uint64_t SpillKey(NodeIndex receiver, NodeIndex sender) {
    return (static_cast<std::uint64_t>(receiver) << 32) | sender;
  }

  // True when this instance schedules node n's beats and receives its
  // heartbeats (always true when unbound).
  bool OwnsNode(NodeIndex n) const {
    return shard_of_host_ == nullptr ||
           (*shard_of_host_)[ring_.node(n).host()] == shard_;
  }
  // The instance owning host h (this, when unbound — the serial path).
  HeartbeatProtocol* PeerForHost(std::size_t h) {
    if (shard_of_host_ == nullptr) return this;
    return peers_[(*shard_of_host_)[h]];
  }

  sim::Simulation& sim_;
  Ring& ring_;
  Config config_;
  bool running_ = false;

  // Sharding (empty/null when unbound — see BindShard).
  std::uint32_t shard_ = 0;
  const std::vector<std::uint32_t>* shard_of_host_ = nullptr;
  std::vector<HeartbeatProtocol*> peers_;

  // Liveness state, one flat slot row per owned node (see Slot), so a
  // beat walks one contiguous row and a delivery stamps one slot. The rows
  // cache the (receiver, sender) -> last-heard mapping for each receiver's
  // current leafset members; heard times of non-members (asymmetric
  // leafsets after churn, members that left) live in spill_. Rows are
  // created on first use, so an instance bound to one shard holds rows
  // only for the nodes it owns.
  std::size_t width_ = 0;                 // slots per row: 2r
  std::vector<std::uint32_t> row_of_;     // node -> row index (kNoRow)
  std::vector<RowHead> heads_;            // by row
  std::vector<Slot> rows_;                // row r: [r * width_, +width_)
  std::unordered_map<std::uint64_t, sim::Time> spill_;  // SpillKey -> heard
  std::vector<Slot> scratch_;             // BuildRow's staging row
  // Beats: every node shares one period, so beats recur in a fixed cyclic
  // order, and one self-rescheduling walker event (beat_walker_) sweeps
  // this row, firing each node at exactly the time a periodic timer of its
  // own would fire (deadlines accumulate += period per node, the event
  // queue's re-arm arithmetic). One always-hot walker record replaces N
  // periodic records scattered across the slab. The row is cyclically
  // sorted by next deadline — [beat_cursor_, end) then [0, beat_cursor_)
  // is ascending. The sweep advances each fired entry by one period in
  // place, which preserves the ordering (x < y implies x+p <= y+p, and
  // rounding ties keep their row order, the order per-node timers' seqs
  // would give).
  std::vector<std::pair<sim::Time, NodeIndex>> beat_order_;
  std::size_t beat_cursor_ = 0;
  sim::EventId beat_walker_ = sim::kInvalidEventId;
  std::vector<char> detected_;  // dead nodes already processed
  // suspected_[row] = members the row's node currently suspects, sorted.
  std::vector<std::vector<NodeIndex>> suspected_;

  std::vector<Observer> observers_;
  std::vector<FailureObserver> failure_observers_;
  std::vector<SuspicionObserver> suspicion_observers_;
  // dht.heartbeat.* counters in the simulation's registry, cached at
  // construction (pointer bumps only on the hot path, no name lookups).
  obs::Counter* m_sent_;
  obs::Counter* m_delivered_;
  obs::Counter* m_failures_;
  obs::Counter* m_suspicions_;
  obs::Counter* m_false_suspicions_;
  obs::Counter* m_suspicion_clears_;
  std::size_t sent_ = 0;
  std::size_t delivered_ = 0;
  std::size_t failures_detected_ = 0;
  std::size_t suspicions_ = 0;
  std::size_t false_suspicions_ = 0;
};

}  // namespace p2p::dht

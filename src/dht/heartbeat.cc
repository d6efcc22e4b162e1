#include "dht/heartbeat.h"

#include <algorithm>

#include "util/check.h"

namespace p2p::dht {

namespace {

// Returns true when `m` was newly inserted.
bool SortedInsert(std::vector<NodeIndex>& set, NodeIndex m) {
  const auto it = std::lower_bound(set.begin(), set.end(), m);
  if (it != set.end() && *it == m) return false;
  set.insert(it, m);
  return true;
}

// Returns true when `m` was present (and removed).
bool SortedErase(std::vector<NodeIndex>& set, NodeIndex m) {
  const auto it = std::lower_bound(set.begin(), set.end(), m);
  if (it == set.end() || *it != m) return false;
  set.erase(it);
  return true;
}

}  // namespace

HeartbeatProtocol::HeartbeatProtocol(sim::Simulation& sim, Ring& ring,
                                     Config config)
    : sim_(sim), ring_(ring), config_(config) {
  P2P_CHECK(config_.period_ms > 0.0);
  P2P_CHECK(config_.timeout_ms > config_.period_ms);
  auto& reg = sim_.metrics();
  m_sent_ = &reg.counter("dht.heartbeat.sent");
  m_delivered_ = &reg.counter("dht.heartbeat.delivered");
  m_failures_ = &reg.counter("dht.heartbeat.failures_detected");
  m_suspicions_ = &reg.counter("dht.heartbeat.suspicions");
  m_false_suspicions_ = &reg.counter("dht.heartbeat.false_suspicions");
  m_suspicion_clears_ = &reg.counter("dht.heartbeat.suspicion_clears");
}

void HeartbeatProtocol::Start() {
  P2P_CHECK_MSG(!running_, "heartbeat protocol already running");
  running_ = true;
  // The bus charges the same host-to-host delays the protocol used to
  // compute itself; keep its oracle in sync with the ring's.
  if (ring_.oracle() != nullptr) sim_.transport().set_oracle(ring_.oracle());
  width_ = ring_.leafset_size();
  P2P_CHECK_MSG(width_ < kNoSlot, "leafset too large for heartbeat slots");
  row_of_.assign(ring_.size(), kNoRow);
  detected_.assign(ring_.size(), 0);
  std::size_t owned = 0;
  for (NodeIndex n = 0; n < ring_.size(); ++n) {
    if (!ring_.alive(n) || !OwnsNode(n)) continue;
    ++owned;
    InsertBeat(n);
  }
  // Rows themselves are laid out lazily, on each node's first beat or
  // delivery; only the storage is sized here, to the nodes this instance
  // owns.
  heads_.reserve(owned);
  suspected_.reserve(owned);
  rows_.reserve(owned * width_);
}

void HeartbeatProtocol::BindShard(
    std::uint32_t shard, const std::vector<std::uint32_t>* shard_of_host,
    std::vector<HeartbeatProtocol*> peers) {
  P2P_CHECK_MSG(!running_, "bind before Start");
  P2P_CHECK(shard_of_host != nullptr);
  P2P_CHECK_MSG(shard < peers.size(), "shard index outside the peer table");
  P2P_CHECK_MSG(peers[shard] == this, "peer table must map this shard here");
  shard_ = shard;
  shard_of_host_ = shard_of_host;
  peers_ = std::move(peers);
}

void HeartbeatProtocol::Stop() {
  running_ = false;
  sim_.Cancel(beat_walker_);
  beat_walker_ = sim::kInvalidEventId;
  beat_order_.clear();
  beat_cursor_ = 0;
}

void HeartbeatProtocol::OnNodeJoined(NodeIndex n) {
  if (!running_) return;
  if (row_of_.size() <= n) {
    row_of_.resize(n + 1, kNoRow);
    detected_.resize(n + 1, 0);
  }
  if (OwnsNode(n)) InsertBeat(n);
}

void HeartbeatProtocol::InsertBeat(NodeIndex n) {
  // Desynchronise nodes with a random phase within one period.
  const sim::Time first =
      sim_.now() + sim_.rng().Uniform(0.0, config_.period_ms);
  // The row is cyclically ascending: [cursor, end) then [0, cursor). A
  // deadline past the current segment's tail belongs to the wrapped
  // segment (it fires next cycle). Ties insert after existing entries —
  // the order per-node periodic timers would give, since a joiner's timer
  // would carry a younger seq than anything already scheduled then.
  const auto fires_no_later = [first](const std::pair<sim::Time, NodeIndex>&
                                          e) { return e.first <= first; };
  std::size_t pos;
  if (beat_cursor_ < beat_order_.size() &&
      first <= beat_order_.back().first) {
    pos = static_cast<std::size_t>(
        std::partition_point(beat_order_.begin() + beat_cursor_,
                             beat_order_.end(), fires_no_later) -
        beat_order_.begin());
    beat_order_.insert(beat_order_.begin() + pos, {first, n});
  } else {
    pos = static_cast<std::size_t>(
        std::partition_point(beat_order_.begin(),
                             beat_order_.begin() + beat_cursor_,
                             fires_no_later) -
        beat_order_.begin());
    beat_order_.insert(beat_order_.begin() + pos, {first, n});
    ++beat_cursor_;  // inserted into the wrapped (next-cycle) segment
  }
  const std::size_t next =
      beat_cursor_ == beat_order_.size() ? 0 : beat_cursor_;
  if (pos != next) return;
  // The new entry is the next to fire: pull the walker's wakeup forward.
  // Rearm reports false when the walker is firing right now (a join from
  // inside the sweep) — BeatSweep reschedules after it drains — and when
  // no walker exists yet (Start), schedule the first one.
  if (beat_walker_ == sim::kInvalidEventId) {
    ScheduleSweep();
  } else {
    sim_.Rearm(beat_walker_, first);
  }
}

void HeartbeatProtocol::BeatSweep() {
  const sim::Time now = sim_.now();
  while (!beat_order_.empty()) {
    if (beat_cursor_ == beat_order_.size()) {
      if (beat_order_.front().first != now) break;
      beat_cursor_ = 0;
    }
    auto& e = beat_order_[beat_cursor_];
    if (e.first != now) break;
    const NodeIndex n = e.second;
    e.first += config_.period_ms;  // same arithmetic as a periodic re-arm
    ++beat_cursor_;
    Beat(n);
  }
  ScheduleSweep();
}

void HeartbeatProtocol::ScheduleSweep() {
  if (beat_order_.empty()) {
    beat_walker_ = sim::kInvalidEventId;
    return;
  }
  const std::size_t next =
      beat_cursor_ == beat_order_.size() ? 0 : beat_cursor_;
  beat_walker_ = sim_.At(beat_order_[next].first, [this] { BeatSweep(); });
}

std::uint32_t HeartbeatProtocol::LayOutRow(NodeIndex n) {
  if (n >= row_of_.size()) row_of_.resize(n + 1, kNoRow);
  std::uint32_t row = row_of_[n];
  if (row == kNoRow) {
    row = static_cast<std::uint32_t>(heads_.size());
    row_of_[n] = row;
    heads_.push_back({0, 0});
    suspected_.emplace_back();
    if (rows_.size() + width_ > rows_.capacity()) {
      // Joins past the owned count reserved at Start: grow by a sixteenth,
      // not the default doubling, so the footprint tracks the owned nodes.
      rows_.reserve(rows_.size() + std::max(rows_.size() / 16, 64 * width_));
    }
    rows_.resize(rows_.size() + width_);
    BuildRow(n, row, /*fresh=*/true);
  } else {
    BuildRow(n, row, /*fresh=*/false);
  }
  return row;
}

std::uint32_t HeartbeatProtocol::ReverseSlot(NodeIndex m, NodeIndex n) const {
  const Leafset& ls = ring_.node(m).leafset();
  const auto& succ = ls.successors();
  for (std::size_t k = 0; k < succ.size(); ++k)
    if (succ[k].node == n) return static_cast<std::uint32_t>(k);
  const auto& pred = ls.predecessors();
  for (std::size_t k = 0; k < pred.size(); ++k)
    if (pred[k].node == n) return static_cast<std::uint32_t>(width_ / 2 + k);
  return kNoSlot;
}

void HeartbeatProtocol::BuildRow(NodeIndex n, std::uint32_t row, bool fresh) {
  const Node& x = ring_.node(n);
  const Leafset& ls = x.leafset();
  const sim::Transport& bus = sim_.transport();
  const std::size_t src = x.host();
  scratch_.assign(width_, Slot{kEmpty, 0, kNoSlot, kNeverHeard, -1.0});
  const auto place = [&](std::size_t k, const LeafsetEntry& e) {
    const std::size_t dst = ring_.node(e.node).host();
    P2P_CHECK_MSG(e.node < kEmpty && dst < (1u << 24),
                  "node or host index too large for heartbeat slots");
    Slot& s = scratch_[k];
    s.member = static_cast<std::uint32_t>(e.node);
    s.host = static_cast<std::uint32_t>(dst);
    s.rev = ReverseSlot(e.node, n);
    s.delay = bus.oracle() != nullptr ? bus.BaseDelayMs(src, dst) : -1.0;
  };
  const auto& succ = ls.successors();
  const auto& pred = ls.predecessors();
  for (std::size_t k = 0; k < succ.size(); ++k) place(k, succ[k]);
  for (std::size_t k = 0; k < pred.size(); ++k)
    if (!ls.InSuccessors(pred[k].id)) place(width_ / 2 + k, pred[k]);

  // Carry heard times over: from the previous layout for members that
  // stay, then from the spill for members that (re)enter; members that
  // left spill theirs. The (receiver, sender) mapping is thereby the same
  // before and after — the row only caches where it lives.
  Slot* const old = SlotsOf(row);
  if (!fresh) {
    for (std::size_t j = 0; j < width_; ++j) {
      if (old[j].member == kEmpty || old[j].heard < 0.0) continue;
      bool kept = false;
      for (Slot& s : scratch_) {
        if (s.member == old[j].member) {
          s.heard = old[j].heard;
          kept = true;
          break;
        }
      }
      if (!kept) spill_[SpillKey(n, old[j].member)] = old[j].heard;
    }
  }
  if (!spill_.empty()) {
    for (Slot& s : scratch_) {
      if (s.member == kEmpty || s.heard >= 0.0) continue;
      const auto it = spill_.find(SpillKey(n, s.member));
      if (it == spill_.end()) continue;
      s.heard = it->second;
      spill_.erase(it);
    }
  }
  // A crashed member entering the row (DetectFailure's refill lists
  // crashed nodes nobody has detected yet) is watched from now on: its
  // silence runs from this layout, not from its last beat to n or from the
  // start, so n cannot declare it failed sooner than a timeout after
  // taking it in.
  if (!fresh) {
    const sim::Time now = sim_.now();
    for (Slot& s : scratch_) {
      if (s.member == kEmpty || ring_.alive(s.member)) continue;
      if (std::none_of(old, old + width_,
                       [&s](const Slot& o) { return o.member == s.member; }))
        s.heard = now;
    }
  }
  std::copy(scratch_.begin(), scratch_.end(), old);
  heads_[row] = {ring_.leafset_version(n), static_cast<std::uint32_t>(src)};
}

void HeartbeatProtocol::Beat(NodeIndex n) {
  if (!running_ || !ring_.alive(n)) return;
  const sim::Time now = sim_.now();
  const std::uint32_t row = RowFor(n);
  sim::Message msg;
  msg.src_host = heads_[row].host;
  msg.protocol = sim::Protocol::kHeartbeat;
  msg.bytes = kHeartbeatBytes;
  sim::SendOptions opts;
  opts.fallback_delay_ms = config_.default_delay_ms;
  const Slot* slots = SlotsOf(row);
  for (std::size_t k = 0; k < width_; ++k) {
    const Slot& s = slots[k];
    if (s.member == kEmpty) continue;
    ++sent_;
    m_sent_->Inc();
    const NodeIndex to = s.member;
    const std::uint32_t rev = s.rev;
    msg.dst_host = s.host;
    opts.delay_override_ms = s.delay;
    // The receiver's owning instance records the delivery: its state rows
    // for `to` are only ever touched on its own shard. `peer == this` when
    // unbound, so the serial path is unchanged.
    HeartbeatProtocol* peer = PeerForHost(s.host);
    sim_.transport().Send(
        msg, [peer, n, to, now, rev] { peer->Deliver(n, to, now, rev); },
        opts);
  }
  CheckTimeouts(n, row);
}

void HeartbeatProtocol::Deliver(NodeIndex from, NodeIndex to,
                                sim::Time send_time, std::uint32_t rev) {
  if (!running_) return;
  // A crashed sender's in-flight messages are dropped (it "stopped
  // responding" at fail time, and Beat checks liveness at send time, so
  // this only filters messages racing a failure).
  if (!ring_.alive(from) || !ring_.alive(to)) return;
  ++delivered_;
  m_delivered_->Inc();
  const sim::Time now = sim_.now();
  // Stamp the sender's slot in the receiver's row: the slot the sender
  // named when it built its own row, else (either leafset changed since)
  // a scan of the row, else the spill (the sender is not a member).
  const std::uint32_t row = RowFor(to);
  Slot* slots = SlotsOf(row);
  Slot* hit = rev < width_ && slots[rev].member == from ? &slots[rev] : nullptr;
  for (std::size_t k = 0; hit == nullptr && k < width_; ++k)
    if (slots[k].member == from) hit = &slots[k];
  if (hit != nullptr) {
    hit->heard = now;
  } else {
    spill_[SpillKey(to, from)] = now;
  }
  // Hearing from a suspect clears the suspicion (it was a false alarm or
  // the network healed).
  if (config_.suspect_alive && SortedErase(suspected_[row], from))
    m_suspicion_clears_->Inc();
  for (const auto& obs : observers_) obs(from, to, send_time, now);
}

void HeartbeatProtocol::CheckTimeouts(NodeIndex n, std::uint32_t row) {
  const sim::Time now = sim_.now();
  // Walks the row as laid out for this beat even if a detection below
  // rewrites n's leafset: the row is only rebuilt on n's next use, so the
  // loop sees the members the beat was sent to. Slots are re-read by index
  // because observers may create other rows (and move the storage).
  for (std::size_t k = 0; k < width_; ++k) {
    const Slot s = SlotsOf(row)[k];
    if (s.member == kEmpty) continue;
    const NodeIndex m = s.member;
    if (ring_.alive(m)) {
      // Suspicion (suspect_alive mode): a member we *have* heard from
      // before has gone silent past the timeout. Requiring one prior
      // delivery avoids flagging everyone during start-up warm-up.
      if (!config_.suspect_alive) continue;
      if (s.heard < 0.0) continue;
      if (now - s.heard < config_.timeout_ms) continue;
      if (!SortedInsert(suspected_[row], m)) continue;  // already suspected
      ++suspicions_;
      ++false_suspicions_;  // m is alive: by definition a false positive
      m_suspicions_->Inc();
      m_false_suspicions_->Inc();
      for (const auto& obs : suspicion_observers_) obs(n, m, now, true);
      continue;
    }
    const sim::Time heard = s.heard < 0.0 ? 0.0 : s.heard;
    if (now - heard < config_.timeout_ms) continue;
    // Sensor mode (auto_repair off): every detector independently marks the
    // silent member in its own suspect set — the dead node never beats
    // again, so the suspicion persists and rides the in-band telemetry
    // until an external reactor repairs membership.
    if (!config_.auto_repair) SortedInsert(suspected_[row], m);
    if (detected_[m]) continue;
    detected_[m] = 1;
    ++failures_detected_;
    m_failures_->Inc();
    if (config_.suspect_alive) {
      // The unified suspicion stream also sees true positives, so
      // false_suspicions() / suspicions() is a meaningful FP rate.
      ++suspicions_;
      m_suspicions_->Inc();
      for (const auto& obs : suspicion_observers_) obs(n, m, now, false);
    }
    if (config_.auto_repair) {
      // Failure detection rewrites shared ring membership (DetectFailure
      // below) and races lazily-sorted ring views; multi-shard runs keep
      // membership frozen during windows, so a detection there is a bug.
      P2P_CHECK_MSG(peers_.size() <= 1,
                    "failure detection is unsupported in multi-shard runs");
      // First detection triggers ring-wide cleanup, standing in for the
      // rapid propagation of the death notice through leafset exchanges.
      ring_.DetectFailure(m);
    }
    for (const auto& obs : failure_observers_) obs(n, m, now);
  }
}

std::size_t HeartbeatProtocol::MemoryBytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += row_of_.capacity() * sizeof(std::uint32_t);
  bytes += heads_.capacity() * sizeof(RowHead);
  bytes += (rows_.capacity() + scratch_.capacity()) * sizeof(Slot);
  // Hash-node payload plus its chain pointer, and the bucket array.
  bytes += spill_.size() *
           (sizeof(std::pair<const std::uint64_t, sim::Time>) + sizeof(void*));
  bytes += spill_.bucket_count() * sizeof(void*);
  bytes += beat_order_.capacity() * sizeof(std::pair<sim::Time, NodeIndex>);
  bytes += detected_.capacity();
  bytes += suspected_.capacity() * sizeof(std::vector<NodeIndex>);
  for (const auto& row : suspected_)
    bytes += row.capacity() * sizeof(NodeIndex);
  return bytes;
}

}  // namespace p2p::dht

#include "coord/leafset_coords.h"

#include <algorithm>

#include "util/check.h"

namespace p2p::coord {

LeafsetCoordSystem::LeafsetCoordSystem(const dht::Ring& ring,
                                       LeafsetCoordOptions options,
                                       util::Rng& rng)
    : ring_(ring), options_(options), rng_(rng) {
  P2P_CHECK(options_.dimensions > 0);
  P2P_CHECK(options_.measurement_noise >= 0.0 &&
            options_.measurement_noise < 1.0);
  P2P_CHECK_MSG(ring_.oracle() != nullptr,
                "leafset coordinates need a latency oracle");
  coords_.resize(ring_.size());
  for (auto& c : coords_) {
    c.resize(options_.dimensions);
    for (double& v : c) v = rng_.Uniform(0.0, options_.init_range);
  }
  inbox_.resize(ring_.size());
  fresh_.assign(ring_.size(), 0);
}

double LeafsetCoordSystem::Measured(dht::NodeIndex a,
                                    dht::NodeIndex b) const {
  return ring_.LatencyBetween(a, b);
}

void LeafsetCoordSystem::OptimizeNode(
    dht::NodeIndex n,
    const std::vector<std::pair<dht::NodeIndex, double>>& measurements) {
  if (measurements.empty()) return;
  // Snapshot neighbour coordinates: in the real protocol these arrive in
  // heartbeat payloads, so the sender's coordinate is whatever it last
  // advertised, not a live reference.
  std::vector<Vec> neighbour_coords;
  neighbour_coords.reserve(measurements.size());
  for (const auto& [m, delay] : measurements) {
    (void)delay;
    neighbour_coords.push_back(coords_[m]);
  }
  auto objective = [&](const Vec& x) {
    double err = 0.0;
    for (std::size_t i = 0; i < measurements.size(); ++i) {
      const double pred = Distance(x, neighbour_coords[i]);
      err += ErrorTerm(pred, measurements[i].second);
    }
    return err;
  };
  Vec x = coords_[n];
  Minimize(objective, x, options_.nm);
  coords_[n] = Lerp(coords_[n], x, options_.damping);
  ++updates_;
}

double LeafsetCoordSystem::ErrorTerm(double predicted, double measured) const {
  switch (options_.objective) {
    case CoordObjective::kAbsoluteL1:
      return std::abs(predicted - measured);
    case CoordObjective::kRelativeL1:
      return measured > 0.0 ? std::abs(predicted - measured) / measured : 0.0;
    case CoordObjective::kSquaredRelative: {
      if (measured <= 0.0) return 0.0;
      const double rel = (predicted - measured) / measured;
      return rel * rel;
    }
  }
  return 0.0;
}

void LeafsetCoordSystem::Bootstrap() {
  // Replays the incremental growth of a real deployment: nodes join one by
  // one (random order); each fits — undamped, it has no position yet —
  // against the leafset it *would have had at join time*, i.e. the
  // ring-closest already-placed nodes. While the ring is small, that
  // leafset spans every placed node, so the first joiners form a mutually
  // consistent scaffold (GNP's landmark solve arises as a special case);
  // every later joiner is constrained by a full, consistent leafset.
  bootstrapped_ = true;
  std::vector<dht::NodeIndex> order = ring_.SortedAlive();
  rng_.Shuffle(order);

  // Placed nodes, sorted by ring id.
  std::vector<dht::LeafsetEntry> placed;
  placed.reserve(order.size());
  const std::size_t per_side = ring_.per_side();

  for (const dht::NodeIndex n : order) {
    const dht::NodeId id = ring_.node(n).id();
    if (!placed.empty()) {
      // The leafset this node would have on joining the placed-set ring:
      // `per_side` nearest on each side of its insertion point.
      const auto it = std::lower_bound(
          placed.begin(), placed.end(), id,
          [](const dht::LeafsetEntry& e, dht::NodeId v) { return e.id < v; });
      const std::size_t pos = static_cast<std::size_t>(it - placed.begin());
      const std::size_t m = placed.size();
      const std::size_t take = std::min(per_side, m);
      std::vector<std::pair<dht::NodeIndex, double>> meas;
      std::vector<char> used(m, 0);
      for (std::size_t k = 0; k < take; ++k) {
        const std::size_t succ = (pos + k) % m;
        const std::size_t pred = (pos + m - 1 - k) % m;
        for (const std::size_t p : {succ, pred}) {
          if (used[p]) continue;
          used[p] = 1;
          double delay = Measured(n, placed[p].node);
          if (options_.measurement_noise > 0.0) {
            delay *= rng_.Uniform(1.0 - options_.measurement_noise,
                                  1.0 + options_.measurement_noise);
          }
          meas.emplace_back(placed[p].node, delay);
        }
      }
      auto objective = [&](const Vec& x) {
        double err = 0.0;
        for (const auto& [peer, d] : meas)
          err += ErrorTerm(Distance(x, coords_[peer]), d);
        return err;
      };
      Vec x = coords_[n];
      Minimize(objective, x, options_.nm);
      coords_[n] = std::move(x);
      ++updates_;
      placed.insert(placed.begin() + static_cast<std::ptrdiff_t>(pos),
                    {id, n});
    } else {
      placed.push_back({id, n});
    }
  }
}

void LeafsetCoordSystem::RunRounds(std::size_t rounds) {
  if (options_.incremental_bootstrap && !bootstrapped_) Bootstrap();
  std::vector<dht::NodeIndex> order = ring_.SortedAlive();
  for (std::size_t r = 0; r < rounds; ++r) {
    rng_.Shuffle(order);
    for (const dht::NodeIndex n : order) {
      std::vector<std::pair<dht::NodeIndex, double>> meas;
      ring_.node(n).leafset().ForEachMember([&](const dht::LeafsetEntry& e) {
        if (!ring_.alive(e.node)) return;
        double delay = Measured(n, e.node);
        if (options_.measurement_noise > 0.0) {
          delay *= rng_.Uniform(1.0 - options_.measurement_noise,
                                1.0 + options_.measurement_noise);
        }
        meas.emplace_back(e.node, delay);
      });
      OptimizeNode(n, meas);
    }
  }
}

void LeafsetCoordSystem::AttachTo(dht::HeartbeatProtocol& heartbeat) {
  heartbeat.AddObserver(
      [this](dht::NodeIndex from, dht::NodeIndex to, sim::Time send_t,
             sim::Time recv_t) { OnHeartbeat(from, to, send_t, recv_t); });
}

void LeafsetCoordSystem::OnHeartbeat(dht::NodeIndex from, dht::NodeIndex to,
                                     sim::Time send_t, sim::Time recv_t) {
  if (inbox_.size() <= std::max(from, to)) {
    inbox_.resize(ring_.size());
    fresh_.resize(ring_.size(), 0);
    coords_.resize(ring_.size(), Vec(options_.dimensions, 0.0));
  }
  double delay = recv_t - send_t;  // one-way delay from message timestamps
  P2P_DCHECK(delay >= 0.0);
  if (options_.measurement_noise > 0.0) {
    delay *= rng_.Uniform(1.0 - options_.measurement_noise,
                          1.0 + options_.measurement_noise);
  }
  inbox_[to][from] = Observation{delay, coords_[from]};
  if (++fresh_[to] < options_.observations_per_update) return;
  fresh_[to] = 0;

  std::vector<std::pair<dht::NodeIndex, double>> meas;
  std::vector<Vec> sender_coords;
  meas.reserve(inbox_[to].size());
  for (const auto& [m, obs] : inbox_[to]) {
    meas.emplace_back(m, obs.delay_ms);
    sender_coords.push_back(obs.sender_coord);
  }
  // Optimise against the *advertised* coordinates captured in the inbox.
  auto objective = [&](const Vec& x) {
    double err = 0.0;
    for (std::size_t i = 0; i < meas.size(); ++i)
      err += ErrorTerm(Distance(x, sender_coords[i]), meas[i].second);
    return err;
  };
  Vec x = coords_[to];
  Minimize(objective, x, options_.nm);
  coords_[to] = Lerp(coords_[to], x, options_.damping);
  ++updates_;
}

}  // namespace p2p::coord

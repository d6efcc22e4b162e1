#include "bwest/estimator.h"

#include <algorithm>

#include "util/check.h"

namespace p2p::bwest {

BandwidthEstimator::BandwidthEstimator(const dht::Ring& ring,
                                       const net::BandwidthModel& model,
                                       PacketPairOptions options,
                                       util::Rng& rng)
    : ring_(ring), model_(model), probe_(model, options, rng) {
  estimates_.resize(ring_.size());
}

double BandwidthEstimator::TrueUpKbps(dht::NodeIndex n) const {
  return model_.host(ring_.node(n).host()).up_kbps;
}

double BandwidthEstimator::TrueDownKbps(dht::NodeIndex n) const {
  return model_.host(ring_.node(n).host()).down_kbps;
}

void BandwidthEstimator::FoldProbe(dht::NodeIndex from, dht::NodeIndex to,
                                   double measured) {
  if (estimates_.size() < ring_.size()) estimates_.resize(ring_.size());
  // The measurement bounds the sender's uplink and the receiver's downlink
  // from below; "max of measured bottlenecks" is the paper's estimator.
  auto& up = estimates_[from];
  up.up_kbps = up.up_samples == 0 ? measured : std::max(up.up_kbps, measured);
  ++up.up_samples;
  auto& down = estimates_[to];
  down.down_kbps =
      down.down_samples == 0 ? measured : std::max(down.down_kbps, measured);
  ++down.down_samples;
}

void BandwidthEstimator::EstimateAll() {
  if (estimates_.size() < ring_.size()) estimates_.resize(ring_.size());
  for (const dht::NodeIndex n : ring_.SortedAlive()) {
    ring_.node(n).leafset().ForEachMember([&](const dht::LeafsetEntry& e) {
      if (!ring_.alive(e.node)) return;
      const auto m =
          probe_.Probe(ring_.node(n).host(), ring_.node(e.node).host());
      if (m.has_value()) FoldProbe(n, e.node, *m);
    });
  }
}

void BandwidthEstimator::AttachTo(dht::HeartbeatProtocol& heartbeat) {
  // Direct measurement, not a second bus message: the heartbeat that just
  // arrived IS the padded pair, so its wire bytes (and any loss) were
  // already accounted to kHeartbeat by the transport.
  heartbeat.AddObserver([this](dht::NodeIndex from, dht::NodeIndex to,
                               sim::Time /*send_t*/, sim::Time /*recv_t*/) {
    const double m =
        probe_.MeasureKbps(ring_.node(from).host(), ring_.node(to).host());
    FoldProbe(from, to, m);
  });
}

double BandwidthEstimator::UpRelativeError(dht::NodeIndex n) const {
  const auto& e = estimates_.at(n);
  P2P_CHECK_MSG(e.up_samples > 0, "node " << n << " has no uplink samples");
  const double truth = TrueUpKbps(n);
  return std::abs(e.up_kbps - truth) / truth;
}

double BandwidthEstimator::DownRelativeError(dht::NodeIndex n) const {
  const auto& e = estimates_.at(n);
  P2P_CHECK_MSG(e.down_samples > 0,
                "node " << n << " has no downlink samples");
  const double truth = TrueDownKbps(n);
  return std::abs(e.down_kbps - truth) / truth;
}

double BandwidthEstimator::UpRankingAccuracy() const {
  const auto alive = ring_.SortedAlive();
  std::size_t agree = 0;
  std::size_t total = 0;
  for (std::size_t i = 0; i < alive.size(); ++i) {
    if (estimates_.at(alive[i]).up_samples == 0) continue;
    for (std::size_t j = i + 1; j < alive.size(); ++j) {
      if (estimates_.at(alive[j]).up_samples == 0) continue;
      const double et_i = estimates_[alive[i]].up_kbps;
      const double et_j = estimates_[alive[j]].up_kbps;
      const double tr_i = TrueUpKbps(alive[i]);
      const double tr_j = TrueUpKbps(alive[j]);
      // Count a pair as agreeing when the estimated order matches the true
      // order (ties in either ordering count as agreement).
      const auto sign = [](double x) { return x < 0 ? -1 : (x > 0 ? 1 : 0); };
      if (sign(et_i - et_j) == sign(tr_i - tr_j) || sign(tr_i - tr_j) == 0 ||
          sign(et_i - et_j) == 0) {
        ++agree;
      }
      ++total;
    }
  }
  return total == 0 ? 1.0 : static_cast<double>(agree) /
                                static_cast<double>(total);
}

}  // namespace p2p::bwest

#include "sim/transport.h"

#include <bit>
#include <string>
#include <utility>

#include "sim/simulation.h"
#include "util/check.h"

namespace p2p::sim {

namespace {

// Delivery tag layout, high to low: valid (so a tag is never 0, the
// kernel's "plain event"), local (counted in this bus's in-flight
// gauges), protocol (3 bits), src host (28), bytes (31).
constexpr int kTagSrcShift = std::bit_width(Transport::kMaxMessageBytes);
constexpr int kTagProtocolShift =
    kTagSrcShift + std::bit_width(Transport::kMaxSrcHost);
constexpr std::uint64_t kTagLocalBit = std::uint64_t{1} << 62;
constexpr std::uint64_t kTagValidBit = std::uint64_t{1} << 63;
static_assert(kProtocolCount <= 8 && kTagProtocolShift + 3 <= 62,
              "protocol must fit its 3 tag bits below the flags");

std::uint64_t TagOf(const Message& msg, bool local) {
  return kTagValidBit | (local ? kTagLocalBit : 0) |
         (static_cast<std::uint64_t>(msg.protocol) << kTagProtocolShift) |
         (static_cast<std::uint64_t>(msg.src_host) << kTagSrcShift) |
         static_cast<std::uint64_t>(msg.bytes);
}

// Stands in for an empty callback (the kernel rejects those; the delivery
// still counts). Out of line, or GCC flags moving its unset buffer bytes.
[[gnu::noinline]] Transport::DeliverFn NoOpDelivery() { return [] {}; }

}  // namespace

double Transport::BaseDelayMs(std::size_t src, std::size_t dst,
                              double fallback) const {
  if (src == dst) return 0.0;
  if (oracle_ != nullptr) return oracle_->Latency(src, dst);
  if (fallback >= 0.0) return fallback;
  return default_delay_ms_;
}

void Transport::SetLinkLoss(std::size_t src, std::size_t dst, double p) {
  P2P_CHECK(p >= 0.0 && p <= 1.0);
  P2P_CHECK_MSG(src < (1ULL << 32) && dst < (1ULL << 32),
                "host indices must fit the packed link key");
  link_loss_[LinkKey(src, dst)] = p;
}

void Transport::SetLinkLossBoth(std::size_t a, std::size_t b, double p) {
  SetLinkLoss(a, b, p);
  SetLinkLoss(b, a, p);
}

void Transport::Partition(std::vector<std::size_t> hosts) {
  partitions_.emplace_back(hosts.begin(), hosts.end());
}

bool Transport::Partitioned(std::size_t a, std::size_t b) const {
  for (const auto& set : partitions_) {
    const bool a_in = set.count(a) > 0;
    const bool b_in = set.count(b) > 0;
    if (a_in != b_in) return true;
  }
  return false;
}

double Transport::LossFor(std::size_t src, std::size_t dst) const {
  if (!link_loss_.empty()) {
    const auto it = link_loss_.find(LinkKey(src, dst));
    if (it != link_loss_.end()) return it->second;
  }
  return faults_.loss_probability;
}

void Transport::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    handles_ = {};
    inflight_msgs_gauge_ = nullptr;
    inflight_bytes_gauge_ = nullptr;
    return;
  }
  for (std::size_t i = 0; i < kProtocolCount; ++i) {
    const std::string prefix =
        std::string("transport.") + ProtocolName(static_cast<Protocol>(i));
    handles_[i].sent = &registry->counter(prefix + ".sent");
    handles_[i].delivered = &registry->counter(prefix + ".delivered");
    handles_[i].dropped_loss = &registry->counter(prefix + ".dropped.loss");
    handles_[i].dropped_partition =
        &registry->counter(prefix + ".dropped.partition");
    handles_[i].bytes = &registry->counter(prefix + ".bytes");
  }
  inflight_msgs_gauge_ = &registry->gauge("transport.inflight.messages");
  inflight_bytes_gauge_ = &registry->gauge("transport.inflight.bytes");
}

void Transport::EnablePerHostStats(std::size_t host_count) {
  if (host_stats_.size() < host_count) host_stats_.resize(host_count);
}

void Transport::FinishDelivery(std::uint64_t tag) {
  const auto pi = static_cast<std::size_t>((tag >> kTagProtocolShift) & 7);
  const std::size_t src = (tag >> kTagSrcShift) & kMaxSrcHost;
  P2P_DCHECK((tag & kTagValidBit) != 0 && pi < kProtocolCount);
  ++stats_.by_protocol[pi].delivered;
  if (src < host_stats_.size()) ++host_stats_[src].delivered;
  if ((tag & kTagLocalBit) != 0) {
    --inflight_msgs_;
    inflight_bytes_ -= tag & kMaxMessageBytes;
  }
  if (metrics_ != nullptr) {
    handles_[pi].delivered->Inc();
    inflight_msgs_gauge_->Set(static_cast<double>(inflight_msgs_));
    inflight_bytes_gauge_->Set(static_cast<double>(inflight_bytes_));
  }
}

bool Transport::Send(const Message& msg, DeliverFn deliver,
                     SendOptions opts) {
  P2P_CHECK_MSG(msg.bytes <= kMaxMessageBytes && msg.src_host <= kMaxSrcHost,
                "message does not fit its delivery tag: bytes=" << msg.bytes
                    << " src_host=" << msg.src_host);
  const auto pi = static_cast<std::size_t>(msg.protocol);
  auto& ps = stats_.by_protocol[pi];
  ++ps.sent;
  ps.bytes += msg.bytes;
  HostStats* hs = msg.src_host < host_stats_.size()
                      ? &host_stats_[msg.src_host]
                      : nullptr;
  if (hs != nullptr) {
    ++hs->sent;
    hs->bytes += msg.bytes;
  }
  if (metrics_ != nullptr) {
    handles_[pi].sent->Inc();
    handles_[pi].bytes->Inc(static_cast<double>(msg.bytes));
  }

  // Fault decisions, in a fixed order so seeded runs reproduce: partition
  // (no RNG), then loss (one Bernoulli draw only when the link is lossy),
  // then jitter (one uniform draw only when enabled). With every fault off
  // this path consumes no RNG at all.
  DropCause cause = DropCause::kNone;
  if (!partitions_.empty() && Partitioned(msg.src_host, msg.dst_host))
    cause = DropCause::kPartition;
  if (cause == DropCause::kNone) {
    const double loss = LossFor(msg.src_host, msg.dst_host);
    if (loss > 0.0 && sim_.rng().Bernoulli(loss)) cause = DropCause::kLoss;
  }
  const bool dropped = cause != DropCause::kNone;
  double delay = 0.0;
  if (!dropped) {
    delay = opts.delay_override_ms >= 0.0
                ? opts.delay_override_ms
                : BaseDelayMs(msg.src_host, msg.dst_host,
                              opts.fallback_delay_ms);
    if (faults_.jitter_ms > 0.0)
      delay += sim_.rng().Uniform(0.0, faults_.jitter_ms);
  }

  if (trace_ != nullptr) {
    trace_->Append(TraceRecord{sim_.now(), msg.src_host, msg.dst_host,
                               msg.protocol, msg.kind, msg.bytes, dropped,
                               cause});
  }
  if (dropped) {
    ++ps.dropped;
    if (cause == DropCause::kLoss) {
      ++ps.dropped_loss;
    } else {
      ++ps.dropped_partition;
    }
    if (hs != nullptr) ++hs->dropped;
    if (metrics_ != nullptr) {
      (cause == DropCause::kLoss ? handles_[pi].dropped_loss
                                 : handles_[pi].dropped_partition)
          ->Inc();
    }
    return false;
  }
  const bool remote = router_ != nullptr && msg.dst_host < shard_host_count_ &&
                      shard_of_host_map_[msg.dst_host] != own_shard_;
  if (opts.inline_delivery) {
    P2P_CHECK_MSG(!remote, "inline delivery cannot cross shards");
    FinishDelivery(TagOf(msg, /*local=*/false));
    if (deliver) deliver();
    return true;
  }
  if (!deliver) deliver = NoOpDelivery();
  if (remote) {
    // Cross-shard: the closure is delivered by the destination shard after
    // the next lookahead barrier. It never enters this shard's queue, so
    // the in-flight gauges (a per-shard queue-depth signal) skip it; the
    // destination bus counts the delivery from the tag.
    router_->PostRemote(msg, sim_.now() + delay, std::move(deliver),
                        TagOf(msg, /*local=*/false));
    return true;
  }
  ++inflight_msgs_;
  inflight_bytes_ += msg.bytes;
  if (metrics_ != nullptr) {
    inflight_msgs_gauge_->Set(static_cast<double>(inflight_msgs_));
    inflight_bytes_gauge_->Set(static_cast<double>(inflight_bytes_));
  }
  sim_.At(sim_.now() + delay, std::move(deliver), TagOf(msg, /*local=*/true));
  return true;
}

std::size_t Transport::MemoryBytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += host_stats_.capacity() * sizeof(HostStats);
  bytes += link_loss_.bucket_count() * sizeof(void*) +
           link_loss_.size() *
               (sizeof(std::pair<const std::uint64_t, double>) +
                2 * sizeof(void*));
  bytes += partitions_.capacity() * sizeof(std::unordered_set<std::size_t>);
  for (const auto& set : partitions_) {
    bytes += set.bucket_count() * sizeof(void*) +
             set.size() * (sizeof(std::size_t) + 2 * sizeof(void*));
  }
  return bytes;
}

}  // namespace p2p::sim

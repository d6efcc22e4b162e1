#include <gtest/gtest.h>

#include <vector>

#include "net/graph.h"
#include "net/latency_oracle.h"
#include "net/transit_stub.h"
#include "sim/simulation.h"
#include "sim/trace.h"
#include "sim/transport.h"
#include "somo/report.h"
#include "util/check.h"
#include "util/rng.h"

namespace p2p::sim {
namespace {

Message Msg(std::size_t src, std::size_t dst,
            Protocol proto = Protocol::kOther, std::size_t bytes = 100) {
  Message m;
  m.src_host = src;
  m.dst_host = dst;
  m.protocol = proto;
  m.bytes = bytes;
  return m;
}

// ------------------------------------------------------------ delay model --

TEST(Transport, SameHostDeliversImmediately) {
  Simulation sim;
  double delivered_at = -1.0;
  sim.transport().Send(Msg(3, 3), [&] { delivered_at = sim.now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(delivered_at, 0.0);
}

TEST(Transport, BusDefaultDelayAppliesWithoutOracle) {
  Simulation sim;
  sim.transport().set_default_delay_ms(75.0);
  double delivered_at = -1.0;
  sim.transport().Send(Msg(0, 1), [&] { delivered_at = sim.now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(delivered_at, 75.0);
}

TEST(Transport, PerSendFallbackBeatsBusDefault) {
  Simulation sim;
  double delivered_at = -1.0;
  SendOptions opts;
  opts.fallback_delay_ms = 10.0;
  sim.transport().Send(Msg(0, 1), [&] { delivered_at = sim.now(); }, opts);
  sim.Run();
  EXPECT_DOUBLE_EQ(delivered_at, 10.0);
}

TEST(Transport, DelayOverrideBeatsEverything) {
  Simulation sim;
  double delivered_at = -1.0;
  SendOptions opts;
  opts.fallback_delay_ms = 10.0;
  opts.delay_override_ms = 3.5;
  sim.transport().Send(Msg(0, 1), [&] { delivered_at = sim.now(); }, opts);
  sim.Run();
  EXPECT_DOUBLE_EQ(delivered_at, 3.5);
}

TEST(Transport, OracleProvidesHostToHostDelay) {
  util::Rng rng(11);
  net::TransitStubParams params;
  params.transit_domains = 2;
  params.transit_routers_per_domain = 2;
  params.stub_domains_per_transit_router = 2;
  params.routers_per_stub_domain = 3;
  params.end_hosts = 16;
  const auto topo = net::GenerateTransitStub(params, rng);
  const net::LatencyOracle oracle(topo);

  Simulation sim;
  sim.transport().set_oracle(&oracle);
  double delivered_at = -1.0;
  sim.transport().Send(Msg(2, 9), [&] { delivered_at = sim.now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(delivered_at, oracle.Latency(2, 9));
  EXPECT_DOUBLE_EQ(sim.transport().BaseDelayMs(2, 9), oracle.Latency(2, 9));
  EXPECT_DOUBLE_EQ(sim.transport().BaseDelayMs(9, 9), 0.0);
}

// ---------------------------------------------------------- deterministic --

TEST(Transport, EqualDelaySendsDeliverFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.transport().Send(Msg(0, 1), [&order, i] { order.push_back(i); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Transport, FaultFreeSendConsumesNoRng) {
  // The acid test of the refactor: with faults off, routing traffic through
  // the bus must leave the simulation's RNG stream untouched, so seeded
  // runs that predate the transport are bit-identical.
  Simulation a(42), b(42);
  for (int i = 0; i < 10; ++i)
    a.transport().Send(Msg(0, 1, Protocol::kHeartbeat), [] {});
  a.Run();
  EXPECT_EQ(a.rng()(), b.rng()());
}

// --------------------------------------------------------- fault injection --

TEST(Transport, TotalLossDropsEverything) {
  Simulation sim;
  sim.transport().faults().loss_probability = 1.0;
  bool ran = false;
  const bool admitted = sim.transport().Send(Msg(0, 1), [&] { ran = true; });
  sim.Run();
  EXPECT_FALSE(admitted);
  EXPECT_FALSE(ran);
  const auto total = sim.transport().stats().Total();
  EXPECT_EQ(total.sent, 1u);
  EXPECT_EQ(total.dropped, 1u);
  EXPECT_EQ(total.delivered, 0u);
}

TEST(Transport, LossIsDeterministicPerSeed) {
  const auto drop_pattern = [](std::uint64_t seed) {
    Simulation sim(seed);
    sim.transport().faults().loss_probability = 0.5;
    std::vector<bool> admitted;
    for (int i = 0; i < 64; ++i)
      admitted.push_back(sim.transport().Send(Msg(0, 1), [] {}));
    return admitted;
  };
  EXPECT_EQ(drop_pattern(7), drop_pattern(7));
  EXPECT_NE(drop_pattern(7), drop_pattern(8));  // and seed-dependent
}

TEST(Transport, JitterStretchesButNeverShrinksDelay) {
  Simulation sim(5);
  sim.transport().set_default_delay_ms(20.0);
  sim.transport().faults().jitter_ms = 30.0;
  std::vector<double> arrivals;
  for (int i = 0; i < 32; ++i)
    sim.transport().Send(Msg(0, 1), [&] { arrivals.push_back(sim.now()); });
  sim.Run();
  ASSERT_EQ(arrivals.size(), 32u);
  bool spread = false;
  for (const double t : arrivals) {
    EXPECT_GE(t, 20.0);
    EXPECT_LT(t, 50.0);
    if (t != arrivals.front()) spread = true;
  }
  EXPECT_TRUE(spread);  // jitter actually varies per message
}

TEST(Transport, PerLinkLossOverridesGlobal) {
  Simulation sim;
  sim.transport().SetLinkLoss(0, 1, 1.0);  // directed
  EXPECT_FALSE(sim.transport().Send(Msg(0, 1), [] {}));
  EXPECT_TRUE(sim.transport().Send(Msg(1, 0), [] {}));  // reverse unaffected
  sim.transport().ClearLinkLoss();
  EXPECT_TRUE(sim.transport().Send(Msg(0, 1), [] {}));
}

TEST(Transport, PartitionIsolatesHostSet) {
  Simulation sim;
  sim.transport().Partition({0, 1});
  EXPECT_TRUE(sim.transport().Partitioned(0, 2));
  EXPECT_FALSE(sim.transport().Partitioned(0, 1));  // inside the set
  EXPECT_FALSE(sim.transport().Partitioned(2, 3));  // outside the set
  EXPECT_FALSE(sim.transport().Send(Msg(0, 2), [] {}));
  EXPECT_FALSE(sim.transport().Send(Msg(2, 1), [] {}));
  EXPECT_TRUE(sim.transport().Send(Msg(0, 1), [] {}));
  EXPECT_TRUE(sim.transport().Send(Msg(2, 3), [] {}));
  sim.transport().HealPartitions();
  EXPECT_TRUE(sim.transport().Send(Msg(0, 2), [] {}));
}

// ----------------------------------------------------- drop-cause accounting --

TEST(Transport, LossDropAccountedAsLossCause) {
  Simulation sim;
  TraceSink trace;
  sim.transport().set_trace(&trace);
  sim.transport().faults().loss_probability = 1.0;
  EXPECT_FALSE(sim.transport().Send(Msg(0, 1), [] {}));
  const auto total = sim.transport().stats().Total();
  EXPECT_EQ(total.dropped, 1u);
  EXPECT_EQ(total.dropped_loss, 1u);
  EXPECT_EQ(total.dropped_partition, 0u);
  const auto records = trace.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].dropped);
  EXPECT_EQ(records[0].cause, DropCause::kLoss);
}

TEST(Transport, PartitionDropAccountedAsPartitionCause) {
  Simulation sim;
  TraceSink trace;
  sim.transport().set_trace(&trace);
  // Loss maxed out too: partition is checked first, so the cause must
  // still read kPartition (and the loss RNG must not even be consulted).
  sim.transport().faults().loss_probability = 1.0;
  sim.transport().Partition({0});
  EXPECT_FALSE(sim.transport().Send(Msg(0, 1), [] {}));
  const auto total = sim.transport().stats().Total();
  EXPECT_EQ(total.dropped, 1u);
  EXPECT_EQ(total.dropped_partition, 1u);
  EXPECT_EQ(total.dropped_loss, 0u);
  const auto records = trace.Snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].cause, DropCause::kPartition);
}

TEST(Transport, CauseSplitSumsToTotalDropped) {
  Simulation sim(17);
  sim.transport().faults().loss_probability = 0.4;
  sim.transport().Partition({5});
  for (int i = 0; i < 100; ++i) sim.transport().Send(Msg(0, 1), [] {});
  for (int i = 0; i < 20; ++i) sim.transport().Send(Msg(5, 1), [] {});
  sim.Run();
  const auto total = sim.transport().stats().Total();
  EXPECT_EQ(total.dropped, total.dropped_loss + total.dropped_partition);
  EXPECT_GT(total.dropped_loss, 0u);
  EXPECT_EQ(total.dropped_partition, 20u);  // every partitioned send
}

// ----------------------------------------------------------------- metrics --

TEST(Transport, EnableMetricsPopulatesRegistry) {
  Simulation sim;
  sim.EnableMetrics();
  sim.transport().faults().loss_probability = 1.0;
  sim.transport().Send(Msg(0, 1, Protocol::kHeartbeat, 200), [] {});
  sim.transport().faults().loss_probability = 0.0;
  sim.transport().Send(Msg(0, 1, Protocol::kHeartbeat, 200), [] {});
  sim.transport().Partition({0});
  sim.transport().Send(Msg(0, 1, Protocol::kSomo, 64), [] {});
  sim.transport().HealPartitions();
  sim.Run();
  auto& m = sim.metrics();
  EXPECT_DOUBLE_EQ(m.Value("transport.heartbeat.sent"), 2.0);
  EXPECT_DOUBLE_EQ(m.Value("transport.heartbeat.delivered"), 1.0);
  EXPECT_DOUBLE_EQ(m.Value("transport.heartbeat.dropped.loss"), 1.0);
  EXPECT_DOUBLE_EQ(m.Value("transport.heartbeat.bytes"), 400.0);
  EXPECT_DOUBLE_EQ(m.Value("transport.somo.dropped.partition"), 1.0);
  // Everything in flight has drained.
  EXPECT_DOUBLE_EQ(m.Value("transport.inflight.messages"), 0.0);
  EXPECT_DOUBLE_EQ(m.Value("transport.inflight.bytes"), 0.0);
}

TEST(Transport, InflightGaugesTrackQueuedMessages) {
  Simulation sim;
  sim.EnableMetrics();
  sim.transport().set_default_delay_ms(50.0);
  sim.transport().Send(Msg(0, 1, Protocol::kOther, 300), [] {});
  sim.transport().Send(Msg(1, 2, Protocol::kOther, 200), [] {});
  EXPECT_DOUBLE_EQ(sim.metrics().Value("transport.inflight.messages"), 2.0);
  EXPECT_DOUBLE_EQ(sim.metrics().Value("transport.inflight.bytes"), 500.0);
  sim.Run();
  EXPECT_DOUBLE_EQ(sim.metrics().Value("transport.inflight.messages"), 0.0);
}

TEST(Transport, EnableMetricsConsumesNoRng) {
  // Instrumentation must never touch the seeded RNG stream: a run with
  // metrics on is bit-identical to the same seed with metrics off.
  Simulation a(42), b(42);
  a.EnableMetrics();
  for (int i = 0; i < 10; ++i) {
    a.transport().Send(Msg(0, 1, Protocol::kSomo), [] {});
    b.transport().Send(Msg(0, 1, Protocol::kSomo), [] {});
  }
  a.Run();
  b.Run();
  EXPECT_EQ(a.rng()(), b.rng()());
}

// ------------------------------------------------------------- accounting --

TEST(Transport, CountersSplitByProtocol) {
  Simulation sim;
  sim.transport().Send(Msg(0, 1, Protocol::kHeartbeat, 1500), [] {});
  sim.transport().Send(Msg(0, 1, Protocol::kHeartbeat, 1500), [] {});
  sim.transport().Send(Msg(0, 1, Protocol::kSomo, 64), [] {});
  sim.Run();
  const auto stats = sim.transport().stats();
  EXPECT_EQ(stats.protocol(Protocol::kHeartbeat).sent, 2u);
  EXPECT_EQ(stats.protocol(Protocol::kHeartbeat).delivered, 2u);
  EXPECT_EQ(stats.protocol(Protocol::kHeartbeat).bytes, 3000u);
  EXPECT_EQ(stats.protocol(Protocol::kSomo).sent, 1u);
  EXPECT_EQ(stats.protocol(Protocol::kSomo).bytes, 64u);
  EXPECT_EQ(stats.protocol(Protocol::kMaintenance).sent, 0u);
  const auto total = stats.Total();
  EXPECT_EQ(total.sent, 3u);
  EXPECT_EQ(total.bytes, 3064u);
  sim.transport().ResetStats();
  EXPECT_EQ(sim.transport().stats().Total().sent, 0u);
}

TEST(Transport, SentSplitsIntoDeliveredPlusDropped) {
  Simulation sim(3);
  sim.transport().faults().loss_probability = 0.3;
  for (int i = 0; i < 200; ++i) sim.transport().Send(Msg(0, 1), [] {});
  sim.Run();
  const auto total = sim.transport().stats().Total();
  EXPECT_EQ(total.sent, 200u);
  EXPECT_EQ(total.delivered + total.dropped, 200u);
  EXPECT_GT(total.dropped, 0u);
  EXPECT_GT(total.delivered, 0u);
}

TEST(Transport, InlineDeliveryRunsInsideSend) {
  Simulation sim;
  bool ran = false;
  SendOptions opts;
  opts.inline_delivery = true;
  sim.transport().Send(Msg(0, 1), [&] { ran = true; }, opts);
  EXPECT_TRUE(ran);  // before Run()
  EXPECT_EQ(sim.transport().stats().Total().delivered, 1u);
}

// ---------------------------------------------------------- delivery tags --

TEST(Transport, TagFieldsFitTheLargestPresetWithRoomToSpare) {
  // A SOMO root view at the 250k preset (every host's record) and its
  // largest host index fit their tag fields at least 100x over.
  const std::size_t hosts =
      net::PresetParams(net::TopologyPreset::kHosts250k).end_hosts;
  const std::size_t root_view =
      somo::kReportHeaderBytes + hosts * somo::kPerRecordBytes;
  EXPECT_LE(100 * root_view, Transport::kMaxMessageBytes);
  EXPECT_LE(100 * hosts, Transport::kMaxSrcHost);
}

TEST(Transport, RejectsMessagesThatOverflowTheirTagBeforeScheduling) {
  Simulation sim;
  sim.EnableMetrics();
  Transport& tp = sim.transport();
  int ran = 0;
  EXPECT_THROW(tp.Send(Msg(0, 1, Protocol::kSomo,
                           Transport::kMaxMessageBytes + 1),
                       [&ran] { ++ran; }),
               util::CheckError);
  EXPECT_THROW(tp.Send(Msg(Transport::kMaxSrcHost + 1, 1), [&ran] { ++ran; }),
               util::CheckError);
  // Nothing was counted or scheduled.
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(tp.stats().Total().sent, 0u);
  EXPECT_EQ(tp.inflight_messages(), 0u);

  // At the bounds every field decodes back exactly: the protocol and
  // host counters and the in-flight bytes (which must return to 0).
  const std::size_t big = Transport::kMaxMessageBytes;
  tp.EnablePerHostStats(4);
  tp.Send(Msg(Transport::kMaxSrcHost, 1, Protocol::kSomo, big),
          [&ran] { ++ran; });
  tp.Send(Msg(3, 1, Protocol::kRouting, big), [&ran] { ++ran; });
  EXPECT_EQ(tp.inflight_bytes(), 2 * big);
  sim.Run();
  EXPECT_EQ(ran, 2);
  const TransportStats stats = tp.stats();
  EXPECT_EQ(stats.protocol(Protocol::kSomo).delivered, 1u);
  EXPECT_EQ(stats.protocol(Protocol::kRouting).delivered, 1u);
  EXPECT_EQ(stats.Total().delivered, 2u);
  EXPECT_EQ(tp.host_stats(3).sent, 1u);
  EXPECT_EQ(tp.host_stats(3).delivered, 1u);
  for (std::size_t h : {0u, 1u, 2u}) EXPECT_EQ(tp.host_stats(h).delivered, 0u);
  EXPECT_EQ(tp.inflight_messages(), 0u);
  EXPECT_EQ(tp.inflight_bytes(), 0u);
  EXPECT_DOUBLE_EQ(sim.metrics().Value("transport.inflight.messages"), 0.0);
  EXPECT_DOUBLE_EQ(sim.metrics().Value("transport.inflight.bytes"), 0.0);
  EXPECT_DOUBLE_EQ(sim.metrics().Value("transport.routing.delivered"), 1.0);
}

// An empty delivery callback is scheduled and counted like any other
// message, whichever driver fires it.
void CheckEmptyCallbackIsDelivered(bool step_driver) {
  Simulation sim;
  sim.EnableMetrics();
  Transport& tp = sim.transport();
  tp.EnablePerHostStats(4);
  tp.Send(Msg(1, 2, Protocol::kSomo, 300), nullptr);
  tp.Send(Msg(2, 1, Protocol::kHeartbeat, 200), Transport::DeliverFn{});
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(tp.inflight_messages(), 2u);
  EXPECT_DOUBLE_EQ(sim.metrics().Value("transport.inflight.messages"), 2.0);
  EXPECT_DOUBLE_EQ(sim.metrics().Value("transport.inflight.bytes"), 500.0);
  if (step_driver) {
    while (sim.Step()) {
    }
  } else {
    sim.RunUntil(1000.0);
  }
  EXPECT_EQ(sim.fired_events(), 2u);
  const TransportStats stats = tp.stats();
  EXPECT_EQ(stats.protocol(Protocol::kSomo).delivered, 1u);
  EXPECT_EQ(stats.protocol(Protocol::kHeartbeat).delivered, 1u);
  EXPECT_EQ(stats.Total().delivered, stats.Total().sent);
  EXPECT_EQ(tp.host_stats(1).delivered, 1u);
  EXPECT_EQ(tp.host_stats(2).delivered, 1u);
  EXPECT_DOUBLE_EQ(sim.metrics().Value("transport.somo.delivered"), 1.0);
  EXPECT_DOUBLE_EQ(sim.metrics().Value("transport.heartbeat.delivered"), 1.0);
  EXPECT_EQ(tp.inflight_messages(), 0u);
  EXPECT_EQ(tp.inflight_bytes(), 0u);
  EXPECT_DOUBLE_EQ(sim.metrics().Value("transport.inflight.messages"), 0.0);
  EXPECT_DOUBLE_EQ(sim.metrics().Value("transport.inflight.bytes"), 0.0);
}

TEST(Transport, EmptyCallbackIsDeliveredUnderStep) {
  CheckEmptyCallbackIsDelivered(/*step_driver=*/true);
}

TEST(Transport, EmptyCallbackIsDeliveredUnderRunUntil) {
  CheckEmptyCallbackIsDelivered(/*step_driver=*/false);
}

// ---------------------------------------------------------------- tracing --

TEST(Transport, TraceRecordsSendsAndDrops) {
  Simulation sim;
  TraceSink trace;
  sim.transport().set_trace(&trace);
  sim.transport().SetLinkLoss(0, 2, 1.0);
  sim.transport().Send(Msg(0, 1, Protocol::kHeartbeat, 1500), [] {});
  sim.transport().Send(Msg(0, 2, Protocol::kSomo, 64), [] {});
  sim.Run();
  const auto records = trace.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].protocol, Protocol::kHeartbeat);
  EXPECT_FALSE(records[0].dropped);
  EXPECT_EQ(records[0].bytes, 1500u);
  EXPECT_EQ(records[1].protocol, Protocol::kSomo);
  EXPECT_TRUE(records[1].dropped);
  EXPECT_DOUBLE_EQ(records[0].time_ms, 0.0);  // stamped at send time
}

TEST(TraceSink, BoundedCapacityKeepsNewestRecords) {
  TraceSink trace(4);
  for (std::size_t i = 0; i < 10; ++i) {
    TraceRecord r;
    r.kind = static_cast<std::uint16_t>(i);
    trace.Append(r);
  }
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.total_records(), 10u);  // truncation is detectable
  const auto records = trace.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(records[i].kind, 6u + i);
}

TEST(TraceSink, WriteTextEmitsHeaderAndRows) {
  TraceSink trace;
  TraceRecord r;
  r.time_ms = 1.5;
  r.src_host = 3;
  r.dst_host = 4;
  r.protocol = Protocol::kBwest;
  r.bytes = 3000;
  trace.Append(r);
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  ASSERT_TRUE(trace.WriteText(tmp));
  std::rewind(tmp);
  char line[256];
  ASSERT_NE(std::fgets(line, sizeof line, tmp), nullptr);
  EXPECT_EQ(std::string(line), "p2ptrace v2 1 1\n");
  ASSERT_NE(std::fgets(line, sizeof line, tmp), nullptr);
  EXPECT_EQ(std::string(line), "1.500000 3 4 bwest 0 3000 0 0\n");
  std::fclose(tmp);
}

// ------------------------------------------------- per-host stats (lazy) --

TEST(Transport, PerHostStatsAllocateLazily) {
  Simulation sim;
  Transport& tp = sim.transport();

  // Off by default: no table, and traffic does not allocate one. Take the
  // baseline after a first delivery — the deltas below then isolate the
  // per-host table from anything the first send sets up.
  EXPECT_FALSE(tp.per_host_enabled());
  tp.Send(Msg(0, 1), [] {});
  sim.Run();
  const std::size_t before = tp.MemoryBytes();
  tp.Send(Msg(0, 1), [] {});
  sim.Run();
  EXPECT_FALSE(tp.per_host_enabled());
  EXPECT_EQ(tp.MemoryBytes(), before);

  // Enabling sizes the table to the host count and starts counting — but
  // only from that point on: the pre-enable send above is not back-filled.
  tp.EnablePerHostStats(4);
  EXPECT_TRUE(tp.per_host_enabled());
  EXPECT_GE(tp.MemoryBytes(), before + 4 * sizeof(HostStats));
  EXPECT_EQ(tp.host_stats(0).sent, 0u);

  tp.Send(Msg(0, 2, Protocol::kSomo, 250), [] {});
  sim.Run();
  EXPECT_EQ(tp.host_stats(0).sent, 1u);
  EXPECT_EQ(tp.host_stats(0).delivered, 1u);
  EXPECT_EQ(tp.host_stats(0).bytes, 250u);
  EXPECT_EQ(tp.host_stats(2).sent, 0u);  // accounting is per SOURCE host
}

TEST(Transport, PerHostStatsNeverShrinkAndIgnoreOutOfRangeHosts) {
  Simulation sim;
  Transport& tp = sim.transport();
  tp.Send(Msg(0, 1), [] {});  // baseline after a first delivery
  sim.Run();
  tp.EnablePerHostStats(8);
  const std::size_t sized = tp.MemoryBytes();
  tp.EnablePerHostStats(2);  // re-enable with fewer hosts must not shrink
  EXPECT_EQ(tp.MemoryBytes(), sized);

  // A send from a host beyond the table is delivered but uncounted rather
  // than crashing or growing the table.
  tp.Send(Msg(100, 1), [] {});
  sim.Run();
  EXPECT_EQ(tp.MemoryBytes(), sized);
  EXPECT_EQ(tp.stats().Total().delivered, 2u);
  EXPECT_EQ(tp.host_stats(0).sent, 0u);  // pre-enable send not back-filled
}

}  // namespace
}  // namespace p2p::sim

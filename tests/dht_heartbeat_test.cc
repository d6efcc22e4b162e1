#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "dht/churn.h"
#include "dht/heartbeat.h"
#include "dht/ring.h"
#include "net/latency_oracle.h"
#include "net/shard_plan.h"
#include "net/transit_stub.h"
#include "sim/sharded.h"
#include "sim/simulation.h"
#include "test_support.h"

namespace p2p::dht {
namespace {

struct HeartbeatFixture {
  sim::Simulation sim{123};
  Ring ring{8};

  explicit HeartbeatFixture(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) ring.JoinHashed(i);
    ring.StabilizeAll();
  }
};

HeartbeatConfig FastConfig() {
  HeartbeatConfig cfg;
  cfg.period_ms = 500.0;
  cfg.timeout_ms = 1600.0;
  return cfg;
}

TEST(Heartbeat, TimeoutMustExceedPeriod) {
  HeartbeatFixture f(4);
  HeartbeatConfig cfg;
  cfg.period_ms = 1000;
  cfg.timeout_ms = 500;
  EXPECT_THROW(HeartbeatProtocol(f.sim, f.ring, cfg), util::CheckError);
}

TEST(Heartbeat, DeliversToAllLeafsetMembers) {
  HeartbeatFixture f(10);
  HeartbeatProtocol hb(f.sim, f.ring);
  hb.Start();
  f.sim.RunUntil(3000.0);
  EXPECT_GT(hb.heartbeats_sent(), 0u);
  EXPECT_GT(hb.heartbeats_delivered(), 0u);
  // Without failures every sent heartbeat is eventually delivered; allow
  // the in-flight tail at the horizon.
  EXPECT_GE(hb.heartbeats_sent(), hb.heartbeats_delivered());
}

TEST(Heartbeat, ObserverSeesSendAndReceiveTimes) {
  HeartbeatFixture f(6);
  HeartbeatProtocol hb(f.sim, f.ring);
  int count = 0;
  hb.AddObserver([&](NodeIndex from, NodeIndex to, sim::Time send_t,
                     sim::Time recv_t) {
    EXPECT_NE(from, to);
    EXPECT_GE(recv_t, send_t);
    ++count;
  });
  hb.Start();
  f.sim.RunUntil(2500.0);
  EXPECT_GT(count, 0);
}

TEST(Heartbeat, DetectsCrashedNodeWithinTimeout) {
  HeartbeatFixture f(16);
  HeartbeatConfig cfg;
  cfg.period_ms = 500.0;
  cfg.timeout_ms = 1600.0;
  HeartbeatProtocol hb(f.sim, f.ring, cfg);
  NodeIndex dead = kNoNode;
  sim::Time detected_at = -1.0;
  hb.AddFailureObserver([&](NodeIndex, NodeIndex d, sim::Time when) {
    dead = d;
    detected_at = when;
  });
  hb.Start();
  f.sim.RunUntil(2000.0);
  f.ring.Fail(3);
  f.sim.RunUntil(8000.0);
  EXPECT_EQ(dead, 3u);
  EXPECT_EQ(hb.failures_detected(), 1u);
  // Detection no earlier than the timeout after the crash, and not much
  // later than timeout + one period of checking slack.
  EXPECT_GE(detected_at, 2000.0 + 0.0);
  EXPECT_LE(detected_at, 2000.0 + cfg.timeout_ms + 2 * cfg.period_ms);
  // Ring-wide cleanup happened.
  for (const NodeIndex n : f.ring.SortedAlive())
    EXPECT_FALSE(f.ring.node(n).leafset().Contains(f.ring.node(3).id()));
}

// Two adjacent crashes in a ring where every node lists every other (9
// nodes, r = 4), so the first detection refills every leafset. The refill
// must keep the second crashed node, not yet detected, listed: dropped
// from every leafset, nobody would ever detect it.
TEST(Heartbeat, SecondOfTwoAdjacentCrashesIsDetected) {
  HeartbeatFixture f(9);
  HeartbeatProtocol hb(f.sim, f.ring, FastConfig());
  std::vector<std::pair<NodeIndex, sim::Time>> detections;
  hb.AddFailureObserver([&](NodeIndex, NodeIndex dead, sim::Time when) {
    detections.emplace_back(dead, when);
  });
  hb.Start();
  f.sim.RunUntil(2000.0);
  const NodeIndex first = 4;
  const NodeIndex second = f.ring.node(first).leafset().successor();
  f.ring.Fail(first);
  // One period later, so the second's last beats postdate the first's and
  // the first is detected (and every leafset refilled) first.
  f.sim.RunUntil(2600.0);
  f.ring.Fail(second);
  f.sim.RunUntil(10000.0);
  ASSERT_EQ(detections.size(), 2u);
  EXPECT_EQ(detections[0].first, first);
  EXPECT_EQ(detections[1].first, second);
  const HeartbeatConfig& cfg = hb.config();
  EXPECT_LE(detections[1].second,
            2600.0 + cfg.timeout_ms + 2 * cfg.period_ms);
  for (const NodeIndex n : f.ring.SortedAlive())
    EXPECT_FALSE(f.ring.node(n).leafset().Contains(f.ring.node(second).id()));
}

// The same two adjacent crashes in a ring larger than two leafsets (24
// nodes, r = 4), the second shortly before the first is detected. The
// first's r-th predecessor never listed the second; the refill that drops
// the first gives it the second instead. Its silence must run from then,
// so the second is detected by the nodes that watched it all along, at
// least a timeout (less one period of beat phase) after its crash, not on
// the newcomer's next beat.
TEST(Heartbeat, RefilledCrashedNodeIsNotDetectedEarly) {
  HeartbeatFixture f(24);
  HeartbeatConfig cfg;
  cfg.period_ms = 200.0;
  cfg.timeout_ms = 2000.0;
  HeartbeatProtocol hb(f.sim, f.ring, cfg);
  std::vector<std::pair<NodeIndex, sim::Time>> detections;
  hb.AddFailureObserver([&](NodeIndex, NodeIndex dead, sim::Time when) {
    detections.emplace_back(dead, when);
  });
  hb.Start();
  f.sim.RunUntil(2000.0);
  const NodeIndex first = 4;
  const Leafset& ls = f.ring.node(first).leafset();
  const NodeIndex second = ls.successor();
  const NodeIndex far_pred = ls.predecessors().back().node;
  ASSERT_FALSE(
      f.ring.node(far_pred).leafset().Contains(f.ring.node(second).id()));
  f.ring.Fail(first);
  // The first is detected from 3800 on; crash the second just before.
  f.sim.RunUntil(3600.0);
  f.ring.Fail(second);
  f.sim.RunUntil(12000.0);
  ASSERT_EQ(detections.size(), 2u);
  EXPECT_EQ(detections[0].first, first);
  EXPECT_EQ(detections[1].first, second);
  EXPECT_GE(detections[1].second, 3600.0 + cfg.timeout_ms - cfg.period_ms);
  EXPECT_LE(detections[1].second,
            3600.0 + cfg.timeout_ms + 2 * cfg.period_ms);
}

TEST(Heartbeat, EachFailureDetectedOnce) {
  HeartbeatFixture f(20);
  HeartbeatConfig cfg;
  cfg.period_ms = 400.0;
  cfg.timeout_ms = 1300.0;
  HeartbeatProtocol hb(f.sim, f.ring, cfg);
  int notifications = 0;
  hb.AddFailureObserver(
      [&](NodeIndex, NodeIndex, sim::Time) { ++notifications; });
  hb.Start();
  f.sim.RunUntil(1000.0);
  f.ring.Fail(2);
  f.ring.Fail(9);
  f.sim.RunUntil(10000.0);
  EXPECT_EQ(notifications, 2);
  EXPECT_EQ(hb.failures_detected(), 2u);
}

TEST(Heartbeat, SensorModeObservesWithoutRepairing) {
  // auto_repair=false turns the detector into a pure sensor: timeouts
  // still count, fire observers, and populate the per-node suspect sets
  // that flow into in-band telemetry — but nobody calls DetectFailure, so
  // the dead member stays in its neighbours' leafsets until an external
  // reactor (the alert loop) evicts it.
  HeartbeatFixture f(16);
  HeartbeatConfig cfg;
  cfg.period_ms = 500.0;
  cfg.timeout_ms = 1600.0;
  cfg.suspect_alive = true;
  cfg.auto_repair = false;
  HeartbeatProtocol hb(f.sim, f.ring, cfg);
  NodeIndex dead = kNoNode;
  hb.AddFailureObserver(
      [&](NodeIndex, NodeIndex d, sim::Time) { dead = d; });
  hb.Start();
  f.sim.RunUntil(2000.0);
  f.ring.Fail(3);
  f.sim.RunUntil(8000.0);
  EXPECT_EQ(dead, 3u);
  EXPECT_EQ(hb.failures_detected(), 1u);
  // No ring-wide cleanup: the victim is still in leafsets, only suspected.
  std::size_t holders = 0, suspectors = 0;
  for (const NodeIndex n : f.ring.SortedAlive()) {
    if (f.ring.node(n).leafset().Contains(f.ring.node(3).id())) ++holders;
    if (hb.suspected_count(n) > 0) ++suspectors;
  }
  EXPECT_GT(holders, 0u);
  EXPECT_GT(suspectors, 0u);
  // The external reactor's move: evict, then nobody holds the victim.
  f.ring.DetectFailure(3);
  for (const NodeIndex n : f.ring.SortedAlive())
    EXPECT_FALSE(f.ring.node(n).leafset().Contains(f.ring.node(3).id()));
}

TEST(Heartbeat, StopCancelsFutureBeats) {
  HeartbeatFixture f(8);
  HeartbeatProtocol hb(f.sim, f.ring);
  hb.Start();
  f.sim.RunUntil(1500.0);
  const std::size_t sent = hb.heartbeats_sent();
  hb.Stop();
  f.sim.RunUntil(10000.0);
  EXPECT_EQ(hb.heartbeats_sent(), sent);
}

TEST(Heartbeat, JoinedNodeStartsBeating) {
  HeartbeatFixture f(8);
  HeartbeatProtocol hb(f.sim, f.ring);
  hb.Start();
  f.sim.RunUntil(1000.0);
  const NodeIndex n = f.ring.JoinHashed(99);
  hb.OnNodeJoined(n);
  std::size_t from_new = 0;
  hb.AddObserver([&](NodeIndex from, NodeIndex, sim::Time, sim::Time) {
    if (from == n) ++from_new;
  });
  f.sim.RunUntil(4000.0);
  EXPECT_GT(from_new, 0u);
}

// Beat walker: one self-rescheduling event sweeps the phase-sorted beat
// row. The pin: every observable — the full delivery trace with
// timestamps, the failure trace, every counter — through a crash, a
// mid-run join, and several beat cycles, folded into one FNV-1a digest.
// It was recorded at a31db31, where this test still ran the walker
// against one periodic timer per node and asserted the two byte-identical;
// the walker is now the only beat driver.
TEST(Heartbeat, BatchedBeatsMatchPerNodeTimersByteForByte) {
  std::vector<std::tuple<NodeIndex, NodeIndex, sim::Time, sim::Time>> beats;
  std::vector<std::tuple<NodeIndex, NodeIndex, sim::Time>> failures;
  HeartbeatFixture f(24);
  HeartbeatConfig cfg;
  cfg.period_ms = 500.0;
  cfg.timeout_ms = 1600.0;
  HeartbeatProtocol hb(f.sim, f.ring, cfg);
  hb.AddObserver([&](NodeIndex from, NodeIndex to, sim::Time s,
                     sim::Time r) { beats.emplace_back(from, to, s, r); });
  hb.AddFailureObserver([&](NodeIndex det, NodeIndex dead, sim::Time when) {
    failures.emplace_back(det, dead, when);
  });
  hb.Start();
  f.sim.RunUntil(1200.0);
  const NodeIndex joiner = f.ring.JoinHashed(99);
  hb.OnNodeJoined(joiner);
  f.sim.RunUntil(2000.0);
  f.ring.Fail(3);
  f.sim.RunUntil(8000.0);
  EXPECT_GT(beats.size(), 0u);
  EXPECT_GT(failures.size(), 0u);
  // The delivery stream, then the failure stream, then the counters.
  p2p::testing::StreamDigest d;
  for (const auto& [from, to, s, r] : beats) {
    d.Add('B');
    d.Add(from);
    d.Add(to);
    d.AddTime(s);
    d.AddTime(r);
  }
  for (const auto& [det, dead, when] : failures) {
    d.Add('F');
    d.Add(det);
    d.Add(dead);
    d.AddTime(when);
  }
  d.Add(hb.heartbeats_sent());
  d.Add(hb.heartbeats_delivered());
  d.Add(hb.failures_detected());
  EXPECT_EQ(d.value(), 0xb2a246ecd6d6469cull) << std::hex << d.value();
}

// Stop() must silence the walker path just like it cancels per-node timers.
TEST(Heartbeat, StopCancelsBatchedWalker) {
  HeartbeatFixture f(8);
  HeartbeatProtocol hb(f.sim, f.ring);
  hb.Start();
  f.sim.RunUntil(1500.0);
  const std::size_t sent = hb.heartbeats_sent();
  hb.Stop();
  f.sim.RunUntil(10000.0);
  EXPECT_EQ(hb.heartbeats_sent(), sent);
}

// ------------------------------------------------------ Differential --
//
// Pins of the heartbeat detector's complete observable output: the ordered
// delivery, suspicion and failure streams, every dht.heartbeat.* counter
// and the final per-node suspect-set sizes, folded into one FNV-1a digest
// per scenario. The expected digests were recorded from the sorted
// per-receiver last-heard rows that the flat slot rows replaced; a layout
// change that moves any byte of any stream fails here. The two scenarios
// where a node is repaired while another crashed node is still undetected
// were re-recorded when DetectFailure's refill began keeping such nodes
// listed (churn: 19 detections instead of 17; sensor mode: node 17 stays
// monitored after node 5's external repair).

using p2p::testing::StreamDigest;

void Tap(HeartbeatProtocol& hb, StreamDigest& d) {
  hb.AddObserver([&d](NodeIndex from, NodeIndex to, sim::Time s,
                      sim::Time r) {
    d.Add('B');
    d.Add(from);
    d.Add(to);
    d.AddTime(s);
    d.AddTime(r);
  });
  hb.AddFailureObserver([&d](NodeIndex det, NodeIndex dead, sim::Time when) {
    d.Add('F');
    d.Add(det);
    d.Add(dead);
    d.AddTime(when);
  });
  hb.AddSuspicionObserver(
      [&d](NodeIndex det, NodeIndex sus, sim::Time when, bool was_alive) {
        d.Add('S');
        d.Add(det);
        d.Add(sus);
        d.AddTime(when);
        d.Add(was_alive ? 1 : 0);
      });
}

void Seal(const HeartbeatProtocol& hb, sim::Simulation& sim, const Ring& ring,
          StreamDigest& d) {
  d.Add(hb.heartbeats_sent());
  d.Add(hb.heartbeats_delivered());
  d.Add(hb.failures_detected());
  d.Add(hb.suspicions());
  d.Add(hb.false_suspicions());
  for (const char* name :
       {"dht.heartbeat.sent", "dht.heartbeat.delivered",
        "dht.heartbeat.failures_detected", "dht.heartbeat.suspicions",
        "dht.heartbeat.false_suspicions", "dht.heartbeat.suspicion_clears"})
    d.AddTime(sim.metrics().Value(name));
  for (NodeIndex n = 0; n < ring.size(); ++n) d.Add(hb.suspected_count(n));
}

// A small transit-stub substrate with its exact oracle, so heartbeats ride
// real, per-edge host-to-host delays.
struct Substrate {
  net::TransitStubTopology topo;
  net::LatencyOracle oracle;
  explicit Substrate(std::size_t hosts, std::uint64_t seed = 5)
      : topo([&] {
          util::Rng rng(seed);
          return net::GenerateTransitStub(
              p2p::testing::SmallTopologyParams(hosts), rng);
        }()),
        oracle(topo) {}
};

struct DigestRun {
  std::uint64_t digest = 0;
  std::size_t delivered = 0;
  std::size_t failures = 0;
  std::size_t suspicions = 0;
  std::size_t non_member_deliveries = 0;
};

DigestRun ConvergedRing() {
  Substrate sub(96);
  sim::Simulation sim(7);
  Ring ring(16, &sub.oracle);
  for (std::size_t h = 0; h < 96; ++h) ring.JoinHashed(h);
  HeartbeatProtocol hb(sim, ring, FastConfig());
  StreamDigest d;
  Tap(hb, d);
  hb.Start();
  sim.RunUntil(6000.0);
  Seal(hb, sim, ring, d);
  return {d.value(), hb.heartbeats_delivered(), hb.failures_detected(),
          hb.suspicions(), 0};
}

DigestRun ChurnWithLossAndSuspicion() {
  Substrate sub(120);
  sim::Simulation sim(11);
  Ring ring(16, &sub.oracle);
  ring.JoinBatchHashed(0, 80);
  HeartbeatConfig cfg = FastConfig();
  cfg.suspect_alive = true;
  HeartbeatProtocol hb(sim, ring, cfg);
  sim.transport().faults().loss_probability = 0.01;
  ChurnProcess::Config churn_cfg;
  churn_cfg.mean_fail_interval_ms = 400.0;
  churn_cfg.mean_join_interval_ms = 400.0;
  for (std::size_t h = 80; h < 120; ++h) churn_cfg.join_hosts.push_back(h);
  ChurnProcess churn(sim, ring, churn_cfg, &hb);
  StreamDigest d;
  Tap(hb, d);
  hb.Start();
  sim.RunUntil(1500.0);
  churn.Start();
  sim.RunUntil(15000.0);
  churn.Stop();
  sim.RunUntil(18000.0);
  Seal(hb, sim, ring, d);
  d.Add(churn.joins());
  d.Add(churn.failures());
  return {d.value(), hb.heartbeats_delivered(), hb.failures_detected(),
          hb.suspicions(), 0};
}

DigestRun SensorModeWithExternalRepair() {
  Substrate sub(48);
  sim::Simulation sim(13);
  Ring ring(16, &sub.oracle);
  for (std::size_t h = 0; h < 48; ++h) ring.JoinHashed(h);
  HeartbeatConfig cfg = FastConfig();
  cfg.suspect_alive = true;
  cfg.auto_repair = false;
  HeartbeatProtocol hb(sim, ring, cfg);
  StreamDigest d;
  Tap(hb, d);
  hb.Start();
  sim.RunUntil(2000.0);
  ring.Fail(5);
  ring.Fail(17);
  sim.RunUntil(5000.0);
  ring.DetectFailure(5);
  sim.RunUntil(9000.0);
  ring.DetectFailure(17);
  sim.RunUntil(11000.0);
  Seal(hb, sim, ring, d);
  return {d.value(), hb.heartbeats_delivered(), hb.failures_detected(),
          hb.suspicions(), 0};
}

DigestRun SwapNodeIdsMidRun() {
  Substrate sub(48);
  sim::Simulation sim(17);
  Ring ring(16, &sub.oracle);
  for (std::size_t h = 0; h < 48; ++h) ring.JoinHashed(h);
  HeartbeatProtocol hb(sim, ring, FastConfig());
  StreamDigest d;
  Tap(hb, d);
  hb.Start();
  sim.RunUntil(2500.0);
  ring.SwapNodeIds(3, 20);
  sim.RunUntil(5000.0);
  ring.Fail(20);
  sim.RunUntil(9000.0);
  Seal(hb, sim, ring, d);
  return {d.value(), hb.heartbeats_delivered(), hb.failures_detected(),
          hb.suspicions(), 0};
}

DigestRun TwoShardBoundRun(std::size_t threads) {
  Substrate sub(96);
  net::ShardPlan plan = net::PlanShards(sub.topo, 2);
  net::ExtractLookahead(sub.topo, sub.oracle, plan);
  sim::ShardedOptions opts;
  opts.shards = 2;
  opts.lookahead_ms = plan.lookahead_ms;
  opts.lookahead_matrix = plan.lookahead_matrix;
  opts.seed = 23;
  opts.threads = threads;
  sim::ShardedSimulation ssim(opts);
  ssim.SetHostShards(plan.shard_of_host);
  Ring ring(16, &sub.oracle);
  ring.JoinBatchHashed(0, 96);
  HeartbeatConfig cfg = FastConfig();
  cfg.suspect_alive = true;
  std::vector<std::unique_ptr<HeartbeatProtocol>> hbs;
  StreamDigest per_shard[2];
  for (std::size_t s = 0; s < 2; ++s) {
    ssim.shard(s).transport().faults().jitter_ms = 1.0;
    hbs.push_back(std::make_unique<HeartbeatProtocol>(ssim.shard(s), ring,
                                                      cfg));
    Tap(*hbs[s], per_shard[s]);
  }
  for (std::size_t s = 0; s < 2; ++s)
    hbs[s]->BindShard(static_cast<std::uint32_t>(s), &ssim.host_shards(),
                      {hbs[0].get(), hbs[1].get()});
  for (auto& hb : hbs) hb->Start();
  ssim.RunUntil(6000.0);
  StreamDigest d;
  DigestRun run;
  for (std::size_t s = 0; s < 2; ++s) {
    Seal(*hbs[s], ssim.shard(s), ring, per_shard[s]);
    d.Add(per_shard[s].value());
    run.delivered += hbs[s]->heartbeats_delivered();
    run.suspicions += hbs[s]->suspicions();
  }
  d.Add(ssim.cross_shard_messages());
  run.digest = d.value();
  return run;
}

DigestRun AsymmetricLeafsets() {
  // A crash followed, before detection, by a join two places past the
  // dead node d: the join refills the joiner's neighbourhood from live
  // membership (d's successors then reach one node further back), while
  // d's farthest predecessors are not refilled and still count d — so
  // those successors heartbeat nodes whose leafsets do not list them.
  Substrate sub(48);
  sim::Simulation sim(19);
  Ring ring(8, &sub.oracle);
  for (std::size_t h = 0; h < 32; ++h) ring.JoinHashed(h);
  HeartbeatProtocol hb(sim, ring, FastConfig());
  StreamDigest d;
  Tap(hb, d);
  std::size_t non_member = 0;
  hb.AddObserver([&](NodeIndex from, NodeIndex to, sim::Time, sim::Time) {
    if (!ring.node(to).leafset().Contains(ring.node(from).id())) ++non_member;
  });
  hb.Start();
  sim.RunUntil(1500.0);
  ring.Fail(7);
  const auto& succ = ring.node(7).leafset().successors();
  const NodeId b2 = succ[1].id;
  const NodeId b3 = succ[2].id;
  const NodeIndex joiner =
      ring.Join(40, b2 + ClockwiseDistance(b2, b3) / 2);
  hb.OnNodeJoined(joiner);
  sim.RunUntil(6000.0);
  Seal(hb, sim, ring, d);
  return {d.value(), hb.heartbeats_delivered(), hb.failures_detected(),
          hb.suspicions(), non_member};
}

TEST(HeartbeatDifferential, ConvergedRing) {
  const DigestRun r = ConvergedRing();
  EXPECT_GT(r.delivered, 0u);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.digest, 0xaca602db98ec704full) << std::hex << r.digest;
}

TEST(HeartbeatDifferential, ChurnWithLossAndSuspicion) {
  const DigestRun r = ChurnWithLossAndSuspicion();
  EXPECT_GT(r.failures, 0u);
  EXPECT_GT(r.suspicions, r.failures);  // loss starves some live members
  EXPECT_EQ(r.digest, 0xadb390a5df34b063ull) << std::hex << r.digest;
}

TEST(HeartbeatDifferential, SensorModeWithExternalRepair) {
  const DigestRun r = SensorModeWithExternalRepair();
  EXPECT_EQ(r.failures, 2u);
  EXPECT_EQ(r.digest, 0xe315c9648e34bb6bull) << std::hex << r.digest;
}

TEST(HeartbeatDifferential, SwapNodeIdsMidRun) {
  const DigestRun r = SwapNodeIdsMidRun();
  EXPECT_EQ(r.failures, 1u);
  EXPECT_EQ(r.digest, 0x948038a41ba1a004ull) << std::hex << r.digest;
}

TEST(HeartbeatDifferential, TwoShardBoundRun) {
  const DigestRun serialised = TwoShardBoundRun(1);
  const DigestRun threaded = TwoShardBoundRun(2);
  EXPECT_GT(serialised.delivered, 0u);
  EXPECT_EQ(serialised.digest, threaded.digest);
  EXPECT_EQ(serialised.digest, 0xe4406068f76cc445ull)
      << std::hex << serialised.digest;
}

TEST(HeartbeatDifferential, AsymmetricLeafsetSpill) {
  const DigestRun r = AsymmetricLeafsets();
  EXPECT_GT(r.non_member_deliveries, 0u);  // the spill path ran
  EXPECT_EQ(r.failures, 1u);
  EXPECT_EQ(r.digest, 0x5984ac3e40746df1ull) << std::hex << r.digest;
}

// A hard gate on a deterministic count: an instance bound to one shard
// holds slot rows, suspicion sets and beat entries only for the nodes that
// shard owns, so the detector's bytes summed over two shards stay within
// 10% of the serial instance's (only the per-node flag columns repeat).
TEST(HeartbeatMemory, TwoShardsStayWithinTenPercentOfSerial) {
  util::Rng topo_rng(3);
  const net::TransitStubTopology topo = net::GenerateTransitStub(
      net::PresetParams(net::TopologyPreset::kPaper1200), topo_rng);
  net::OracleOptions oracle_opts;
  oracle_opts.kind = net::OracleKind::kHierarchical;
  const net::LatencyOracle oracle(topo, oracle_opts);
  const auto bytes = [&](std::size_t shards) {
    net::ShardPlan plan = net::PlanShards(topo, shards);
    if (shards > 1) net::ExtractLookahead(topo, oracle, plan);
    sim::ShardedOptions opts;
    opts.shards = shards;
    opts.lookahead_ms = plan.lookahead_ms;
    opts.lookahead_matrix = plan.lookahead_matrix;
    opts.seed = 29;
    sim::ShardedSimulation ssim(opts);
    ssim.SetHostShards(plan.shard_of_host);
    Ring ring(32, &oracle);
    ring.JoinBatchHashed(0, topo.host_count());
    std::vector<std::unique_ptr<HeartbeatProtocol>> hbs;
    std::vector<HeartbeatProtocol*> peers;
    for (std::size_t s = 0; s < shards; ++s) {
      hbs.push_back(std::make_unique<HeartbeatProtocol>(ssim.shard(s), ring));
      peers.push_back(hbs.back().get());
    }
    if (shards > 1) {
      for (std::size_t s = 0; s < shards; ++s)
        hbs[s]->BindShard(static_cast<std::uint32_t>(s), &ssim.host_shards(),
                          peers);
    }
    for (auto& hb : hbs) hb->Start();
    ssim.RunUntil(3000.0);
    std::size_t total = 0, delivered = 0;
    for (const auto& hb : hbs) {
      total += hb->MemoryBytes();
      delivered += hb->heartbeats_delivered();
    }
    EXPECT_GT(delivered, 0u);
    return total;
  };
  const std::size_t serial = bytes(1);
  const std::size_t two = bytes(2);
  // The slot rows dominate: 2r slots of 24 B for each of the 1200 nodes.
  EXPECT_GE(serial, std::size_t{1200} * 32 * 24);
  EXPECT_LE(two * 10, serial * 11)
      << "two shards hold " << two << " B against " << serial << " B serial";
}

// ---------------------------------------------------------------- Churn --

TEST(Churn, JoinsAndFailuresOccurAtConfiguredRates) {
  HeartbeatFixture f(30);
  ChurnProcess::Config cfg;
  cfg.mean_join_interval_ms = 500.0;
  cfg.mean_fail_interval_ms = 500.0;
  for (std::size_t h = 100; h < 200; ++h) cfg.join_hosts.push_back(h);
  ChurnProcess churn(f.sim, f.ring, cfg);
  churn.Start();
  f.sim.RunUntil(20000.0);
  churn.Stop();
  // ~40 of each expected; allow wide tolerance.
  EXPECT_GT(churn.joins(), 15u);
  EXPECT_GT(churn.failures(), 15u);
  f.ring.StabilizeAll();
  f.ring.CheckInvariants();
}

TEST(Churn, NeverFailsBelowMinAlive) {
  HeartbeatFixture f(6);
  ChurnProcess::Config cfg;
  cfg.mean_fail_interval_ms = 10.0;  // aggressive
  cfg.min_alive = 4;
  ChurnProcess churn(f.sim, f.ring, cfg);
  churn.Start();
  f.sim.RunUntil(5000.0);
  EXPECT_GE(f.ring.alive_count(), 4u);
}

TEST(Churn, CallbacksFire) {
  HeartbeatFixture f(10);
  ChurnProcess::Config cfg;
  cfg.mean_join_interval_ms = 200.0;
  cfg.join_hosts = {50, 51, 52};
  ChurnProcess churn(f.sim, f.ring, cfg);
  int joined = 0;
  churn.on_join = [&](NodeIndex) { ++joined; };
  churn.Start();
  f.sim.RunUntil(5000.0);
  EXPECT_GT(joined, 0);
  EXPECT_EQ(static_cast<std::size_t>(joined), churn.joins());
}

}  // namespace
}  // namespace p2p::dht

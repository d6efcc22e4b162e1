// The event-driven workloads: fullstack_10k, sharded_50k and churn_10k.
//
// One repetition wires the shipping fullstack stack through the public
// calls the CLI's `fullstack` command uses — transit-stub topology,
// hierarchical oracle, shard plan, batch DHT join, leafset heartbeats and
// SOMO gather per shard — runs it to the horizon in timed RunUntil slices
// of WorkloadSpec::slice_ms, plans one 50-member critical+adj session, and
// then (untimed) stops every protocol, drains the bus and checks the outputs.
// As in the CLI, the set-up calls share one thread pool of every CPU the
// process may use, the shards run on their own threads, and a root
// staleness alert is evaluated on the SOMO root owner's shard.
#include <cmath>
#include <functional>
#include <memory>

#include "alm/planner.h"
#include "alm/strategy.h"
#include "bench.h"
#include "checks.h"
#include "dht/churn.h"
#include "dht/heartbeat.h"
#include "dht/ring.h"
#include "net/latency_oracle.h"
#include "net/shard_plan.h"
#include "net/transit_stub.h"
#include "obs/alert.h"
#include "pool/resource_pool.h"
#include "sim/sharded.h"
#include "somo/somo.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace p2p;
using Clock = std::chrono::steady_clock;

constexpr double kSomoIntervalMs = 5000.0;  // the paper's 5 s cycle
constexpr std::size_t kGroup = 50;          // ALM session size incl. root
constexpr std::size_t kHelpers = 200;       // helper candidates sampled
constexpr double kDrainMs = 60000.0;        // bus drain after the horizon
// An unsynchronised gather climbs the tree one level per cycle at worst, so
// on some seeds the root sees its first gather only after the horizon; the
// run then goes on, slice by slice, until it does (at most this many
// horizons).
constexpr double kMaxHorizons = 4.0;

// churn_10k. Session lengths follow the median Saroiu, Gummadi and
// Gribble measured for Napster and Gnutella peers ("A Measurement Study of
// Peer-to-Peer File Sharing Systems", MMCN 2002): about 60 minutes. With
// exponential sessions of that median, N live nodes crash as a Poisson
// process of mean interval median / (ln 2 * N), 541 ms at N = 9,600, and
// joins arrive at the same rate so membership stays level. The loss rate
// is the highest round rate at which loss alone almost never fakes a
// failure: silence past timeout_ms takes 3 lost beats in a row, so each
// monitored pair sees a fake silence with chance ~18 * p^3 = 2e-5 per
// repetition (18 beats: 12 s plus the detection tail) at p = 0.01, while
// 1% of all messages still take the drop path. Churn starts once the first SOMO gather has reached the root, and
// runs to the horizon; after the horizon (untimed) heartbeats keep
// running for one detection bound, so every crash is judged.
constexpr std::size_t kSpareHosts = 400;
constexpr double kMedianSessionMs = 60.0 * 60.0 * 1000.0;
constexpr double kLossProbability = 0.01;
constexpr double kChurnPollMs = 100.0;  // checks for the first gather

double ProfileSumMs(const obs::MetricsRegistry& reg, const std::string& name) {
  const auto it = reg.profiles().find(name);
  return it == reg.profiles().end() ? 0.0 : it->second.sum();
}

}  // namespace

RepResult RunSimRep(const WorkloadSpec& w, std::uint64_t seed, Tracer* tracer,
                    bool setup_only) {
  RepResult r;
  auto& layer = r.layer;
  const auto start = Clock::now();
  const auto workers = std::make_unique<util::ThreadPool>(SetupThreads());

  // --- set-up: topology, oracle, shard plan, join, protocols ------------
  const net::TransitStubParams params =
      net::PresetParams(net::ParseTopologyPreset(w.preset));
  util::Rng topo_rng(seed);
  auto t0 = Clock::now();
  const net::TransitStubTopology topo = [&] {
    ScopedSpan span(tracer, "setup.topology");
    return net::GenerateTransitStub(params, topo_rng, workers.get());
  }();
  layer["net.topo_s"] = SecondsSince(t0);
  const std::size_t hosts = topo.host_count();

  t0 = Clock::now();
  net::OracleOptions oracle_opts;
  oracle_opts.kind = net::OracleKind::kHierarchical;
  oracle_opts.pool = workers.get();
  std::unique_ptr<const net::LatencyOracle> oracle;
  {
    ScopedSpan span(tracer, "setup.oracle");
    oracle = std::make_unique<const net::LatencyOracle>(topo, oracle_opts);
  }
  layer["net.oracle_build_s"] = SecondsSince(t0);

  t0 = Clock::now();
  net::ShardPlan plan;
  {
    ScopedSpan span(tracer, "setup.shard_plan");
    plan = net::PlanShards(topo, w.shards);
    if (w.shards > 1) net::ExtractLookahead(topo, *oracle, plan);
  }
  layer["net.shard_plan_s"] = SecondsSince(t0);

  sim::ShardedOptions sharded_opts;
  sharded_opts.shards = w.shards;
  sharded_opts.lookahead_ms = plan.lookahead_ms;
  sharded_opts.lookahead_matrix = plan.lookahead_matrix;
  sharded_opts.seed = seed;
  sharded_opts.threads = w.shards > 1 ? w.threads : 1;
  sim::ShardedSimulation ssim(sharded_opts);
  for (std::size_t s = 0; s < w.shards; ++s) ssim.shard(s).EnableMetrics();
  sim::Simulation& sim0 = ssim.shard(0);

  const std::size_t initial = w.churn ? hosts - kSpareHosts : hosts;
  dht::Ring ring(32, oracle.get());
  ring.set_thread_pool(workers.get());
  t0 = Clock::now();
  {
    ScopedSpan span(tracer, "setup.join");
    ring.JoinBatchHashed(0, initial);
  }
  layer["dht.join_s"] = SecondsSince(t0);
  if (ring.size() != initial)
    r.check_failures.push_back("DHT join left " + std::to_string(ring.size()) +
                               " of " + std::to_string(initial) + " nodes");
  ring.set_metrics(&sim0.metrics());
  ssim.SetHostShards(plan.shard_of_host);

  std::vector<std::unique_ptr<dht::HeartbeatProtocol>> hbs;
  std::vector<std::unique_ptr<somo::SomoProtocol>> somos;
  std::vector<std::size_t> report_calls(w.shards, 0);
  {
    ScopedSpan span(tracer, "setup.protocols");
    dht::HeartbeatConfig hb_cfg;
    hb_cfg.suspect_alive = w.churn;
    somo::SomoConfig somo_cfg;
    somo_cfg.report_interval_ms = kSomoIntervalMs;
    somo_cfg.disseminate = w.churn;
    somo_cfg.redundant_links = w.churn;
    for (std::size_t s = 0; s < w.shards; ++s) {
      sim::Simulation& ssh = ssim.shard(s);
      hbs.push_back(std::make_unique<dht::HeartbeatProtocol>(ssh, ring, hb_cfg));
      // The benchmark's own report provider; each shard counts its calls
      // in its own cell, so shard threads never share a counter.
      std::size_t* calls = &report_calls[s];
      somos.push_back(std::make_unique<somo::SomoProtocol>(
          ssh, ring, somo_cfg, [&ring, &ssh, calls](dht::NodeIndex n) {
            ++*calls;
            somo::NodeReport rep;
            rep.node = n;
            rep.host = ring.node(n).host();
            rep.generated_at = ssh.now();
            return rep;
          }));
    }
    if (w.shards > 1) {
      std::vector<dht::HeartbeatProtocol*> hb_peers;
      std::vector<somo::SomoProtocol*> somo_peers;
      for (std::size_t s = 0; s < w.shards; ++s) {
        hb_peers.push_back(hbs[s].get());
        somo_peers.push_back(somos[s].get());
      }
      for (std::size_t s = 0; s < w.shards; ++s) {
        const auto shard = static_cast<std::uint32_t>(s);
        hbs[s]->BindShard(shard, &ssim.host_shards(), hb_peers);
        somos[s]->BindShard(shard, &ssim.host_shards(), somo_peers);
      }
    }
    if (w.churn) sim0.transport().faults().loss_probability = kLossProbability;
  }
  // Root numbers come from the instance (and registry) of the shard that
  // owns the SOMO root point — never from a merged registry, whose gauges
  // are last-writer-wins across shards.
  const somo::LogicalTree& tree0 = somos[0]->tree();
  const std::size_t root_shard =
      ssim.ShardOfHost(ring.node(tree0.node(tree0.root()).owner).host());
  somo::SomoProtocol& root_somo = *somos[root_shard];

  // The CLI's root-staleness sentinel: the unsync gather bound plus slack,
  // evaluated every half cycle on the root owner's shard.
  obs::AlertEngine alerts;
  obs::AlertRule root_stale;
  root_stale.name = "somo.root.stale";
  root_stale.threshold =
      (static_cast<double>(tree0.depth()) + 2.0) * kSomoIntervalMs;
  root_stale.debounce_ms = kSomoIntervalMs;
  root_stale.clear_ms = kSomoIntervalMs;
  root_stale.probe = [&root_somo] {
    const double v = root_somo.RootStalenessMs();
    return std::isfinite(v) ? v : 0.0;  // no complete view yet
  };
  alerts.AddRule(std::move(root_stale));
  sim::Simulation& root_sim = ssim.shard(root_shard);
  root_sim.Every(kSomoIntervalMs / 2.0, kSomoIntervalMs / 2.0,
                 [&alerts, &root_sim] { alerts.Evaluate(root_sim.now()); });

  if (tracer != nullptr) {
    for (std::size_t s = 0; s < w.shards; ++s) {
      double* cell = tracer->Counter("hook.heartbeat_delivered.shard" +
                                     std::to_string(s));
      hbs[s]->AddObserver(
          [cell](dht::NodeIndex, dht::NodeIndex, sim::Time, sim::Time) {
            ++*cell;
          });
    }
  }

  // churn_10k: Poisson crashes and joins on the serial kernel from the
  // first gather to the horizon; the failure observer times each detection
  // and rebuilds the SOMO tree for the new membership.
  const dht::HeartbeatConfig& hb_cfg = hbs[0]->config();
  const double detect_bound_ms = hb_cfg.timeout_ms + 2.0 * hb_cfg.period_ms;
  std::unique_ptr<dht::ChurnProcess> churn;
  std::vector<double> crash_at;   // by node index, -1 = never crashed
  std::vector<char> detected;     // by node index
  std::vector<double> detect_delays;
  std::uint64_t late_detections = 0, alive_declared_failed = 0;
  std::size_t rebuilds = 0;
  double rebuild_ms = 0.0, churn_start_ms = -1.0;
  std::size_t gathers_at_churn_start = 0;
  std::function<void()> start_churn;
  double* c_fail = CounterSlot(tracer, "hook.churn_fail");
  double* c_join = CounterSlot(tracer, "hook.churn_join");
  double* c_detect = CounterSlot(tracer, "hook.failure_detected");
  if (w.churn) {
    dht::ChurnProcess::Config churn_cfg;
    churn_cfg.mean_fail_interval_ms =
        kMedianSessionMs / (std::log(2.0) * static_cast<double>(initial));
    churn_cfg.mean_join_interval_ms = churn_cfg.mean_fail_interval_ms;
    for (std::size_t h = initial; h < hosts; ++h)
      churn_cfg.join_hosts.push_back(h);
    churn = std::make_unique<dht::ChurnProcess>(sim0, ring, churn_cfg,
                                                hbs[0].get());
    churn->on_fail = [&](dht::NodeIndex n) {
      if (crash_at.size() <= n) crash_at.resize(n + 1, -1.0);
      crash_at[n] = sim0.now();
      if (c_fail != nullptr) ++*c_fail;
    };
    churn->on_join = [c_join](dht::NodeIndex) {
      if (c_join != nullptr) ++*c_join;
    };
    hbs[0]->AddFailureObserver(
        [&](dht::NodeIndex, dht::NodeIndex dead, sim::Time when) {
          if (c_detect != nullptr) ++*c_detect;
          if (ring.node(dead).alive()) {
            ++alive_declared_failed;
          } else if (dead < crash_at.size() && crash_at[dead] >= 0.0) {
            if (detected.size() <= dead) detected.resize(dead + 1, 0);
            detected[dead] = 1;
            const double delay = when - crash_at[dead];
            detect_delays.push_back(delay);
            if (delay > detect_bound_ms) ++late_detections;
          }
          ScopedSpan span(tracer, "somo.rebuild");
          const auto rb0 = Clock::now();
          root_somo.Rebuild();
          rebuild_ms += SecondsSince(rb0) * 1e3;
          ++rebuilds;
        });
  }

  for (auto& hb : hbs) hb->Start();
  for (auto& so : somos) so->Start();
  if (churn) {
    start_churn = [&] {
      if (root_somo.gathers_completed() == 0) {
        sim0.After(kChurnPollMs, [&start_churn] { start_churn(); });
        return;
      }
      churn_start_ms = sim0.now();
      gathers_at_churn_start = root_somo.gathers_completed();
      churn->Start();
    };
    sim0.After(kChurnPollMs, [&start_churn] { start_churn(); });
  }
  r.setup_s = SecondsSince(start);
  if (setup_only) return r;

  // --- run: slices of w.slice_ms to the horizon --------------------------
  // On the serial kernel a slice end costs nothing, so slices are short: a
  // repetition holds 2000 or more of them and its op_p99_ms lies in the
  // body of the slice distribution. churn_10k needs the shortest (5 ms, so
  // 24 slices of a 12 s repetition lie beyond p99): each SOMO rebuild
  // (30-100 ms, 1-16 per repetition, a seed-dependent count) inflates one
  // slice, and the 1% tail must hold more slices than there are rebuilds.
  // fullstack_10k has no rebuilds and uses 10 ms: at 5 ms a few-ms stall of
  // the machine already doubles a slice and the tail follows machine noise.
  // On the sharded kernel every slice end also ends a lockstep window
  // (about 8 ms each at 50k), so there slices stay at one simulated second.
  std::size_t events = 0;
  double churn_run_s = 0.0;  // wall time of slices that end under churn
  double end_ms = 0.0;       // the horizon, or later if no gather yet
  const auto run_start = Clock::now();
  const double cpu_start = ProcessCpuSeconds();
  for (double t = w.slice_ms;
       t <= w.horizon_ms ||
       (root_somo.gathers_completed() == 0 && t <= kMaxHorizons * w.horizon_ms);
       t += w.slice_ms) {
    end_ms = t;
    ScopedSpan span(tracer, "run.slice");
    const auto s0 = Clock::now();
    const std::size_t n = ssim.RunUntil(t);
    r.op_ms.push_back(SecondsSince(s0) * 1e3);
    if (churn_start_ms >= 0.0) churn_run_s += r.op_ms.back() / 1e3;
    span.set_events(static_cast<std::int64_t>(n));
    events += n;
  }
  r.run_s = SecondsSince(run_start);
  const std::size_t rebuilds_run = rebuilds;
  const double rebuild_run_ms = rebuild_ms;
  r.run_cpu_s = ProcessCpuSeconds() - cpu_start;
  r.work = end_ms / 1000.0;

  // Horizon snapshot, summed shard by shard.
  sim::ProtocolStats bus;
  std::uint64_t hb_sent = 0, hb_delivered = 0, hb_failures = 0,
                hb_false = 0, somo_msgs = 0, somo_bytes = 0, calls = 0;
  double slab_hwm = 0.0, busy_s = 0.0;
  std::size_t shard_bytes = 0;
  for (std::size_t s = 0; s < w.shards; ++s) {
    const sim::ProtocolStats t = ssim.shard(s).transport().stats().Total();
    bus.sent += t.sent;
    bus.delivered += t.delivered;
    bus.dropped += t.dropped;
    bus.bytes += t.bytes;
    hb_sent += hbs[s]->heartbeats_sent();
    hb_delivered += hbs[s]->heartbeats_delivered();
    hb_failures += hbs[s]->failures_detected();
    hb_false += hbs[s]->false_suspicions();
    somo_msgs += somos[s]->messages_sent();
    somo_bytes += somos[s]->bytes_sent();
    calls += report_calls[s];
    slab_hwm += ssim.shard(s).metrics().Value("kernel.slab_hwm");
    busy_s += ProfileSumMs(ssim.shard(s).metrics(), "event_loop.run_ms") / 1e3;
    shard_bytes += hbs[s]->MemoryBytes() + somos[s]->MemoryBytes() +
                   ssim.shard(s).transport().MemoryBytes();
  }
  const obs::MetricsRegistry& root_reg = ssim.shard(root_shard).metrics();
  const double root_staleness = root_reg.Value("somo.root.staleness_ms");
  const std::size_t gathers = root_somo.gathers_completed();
  const std::size_t churn_gathers =
      churn_start_ms >= 0.0 ? gathers - gathers_at_churn_start : 0;

  // --- plan one ALM session (the fullstack command's planning step) -----
  const auto plan_start = Clock::now();
  alm::PlanInput in;
  alm::PlanResult planned{alm::MulticastTree(0), 0.0, 0.0, 0, {}, 0};
  {
    ScopedSpan span(tracer, "alm.plan");
    util::Rng rng(seed ^ 0xfeed);
    in.degree_bounds.reserve(hosts);
    for (std::size_t v = 0; v < hosts; ++v)
      in.degree_bounds.push_back(pool::SamplePaperDegreeBound(rng));
    const auto idx = rng.SampleIndices(hosts, kGroup);
    in.root = idx[0];
    in.members.assign(idx.begin() + 1, idx.end());
    std::vector<char> is_member(hosts, 0);
    for (const auto v : idx) is_member[v] = 1;
    for (const auto v : rng.SampleIndices(hosts, 4 * kHelpers + kGroup)) {
      if (in.helper_candidates.size() >= kHelpers) break;
      if (!is_member[v] && in.degree_bounds[v] >= 4)
        in.helper_candidates.push_back(v);
    }
    in.oracle = oracle.get();
    alm::TreePlanner planner(
        alm::OptionsForStrategy(alm::Strategy::kCriticalAdjust));
    planned = planner.Plan(in);
  }
  r.plan_s = SecondsSince(plan_start);

  // --- checks (untimed) -------------------------------------------------
  const auto latency = [&oracle](alm::ParticipantId a, alm::ParticipantId b) {
    return oracle->Latency(a, b);
  };
  const std::string tree_err = CheckTree(
      planned.tree, in.root, in.members,
      [&in](alm::ParticipantId v) { return in.degree_bounds[v]; }, latency,
      planned.height_true);
  if (!tree_err.empty()) r.check_failures.push_back("planned tree: " + tree_err);
  if (gathers < 1)
    r.check_failures.push_back("somo.gathers is 0: no SOMO gather completed");

  // The replay of Latency() over the run's leafset heartbeat pairs prices
  // one oracle query as the heartbeat send path issues it.
  if (tracer != nullptr) {
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (dht::NodeIndex n = 0; n < ring.size(); ++n) {
      if (!ring.node(n).alive()) continue;
      for (const auto& e : ring.node(n).leafset().Members())
        pairs.emplace_back(ring.node(n).host(), ring.node(e.node).host());
    }
    double sink = 0.0;
    const auto q0 = Clock::now();
    for (const auto& [a, b] : pairs) sink += oracle->Latency(a, b);
    const double query_s = SecondsSince(q0);
    layer["net.oracle_query_ns"] =
        pairs.empty() ? 0.0 : query_s * 1e9 / static_cast<double>(pairs.size());
    if (sink < 0.0) r.check_failures.push_back("negative oracle latency");
  }

  // Stop every protocol and drain the bus: each message sent before the
  // horizon is then delivered or dropped, so the counts must balance. Under
  // churn the heartbeats first run one more detection bound, so a crash
  // just before the horizon is still detected or counted as missed.
  double drain_from_ms = end_ms;
  for (auto& so : somos) so->Stop();
  if (churn) {
    churn->Stop();
    drain_from_ms += detect_bound_ms;
    ssim.RunUntil(drain_from_ms);
  }
  for (auto& hb : hbs) hb->Stop();
  ssim.RunUntil(drain_from_ms + kDrainMs);
  sim::ProtocolStats drained, hb_bus;
  std::uint64_t inflight = 0, hb_sent_all = 0, hb_delivered_all = 0;
  for (std::size_t s = 0; s < w.shards; ++s) {
    hb_sent_all += hbs[s]->heartbeats_sent();
    hb_delivered_all += hbs[s]->heartbeats_delivered();
    const sim::TransportStats st = ssim.shard(s).transport().stats();
    const sim::ProtocolStats t = st.Total();
    const sim::ProtocolStats& h = st.protocol(sim::Protocol::kHeartbeat);
    drained.sent += t.sent;
    drained.delivered += t.delivered;
    drained.dropped += t.dropped;
    hb_bus.sent += h.sent;
    hb_bus.delivered += h.delivered;
    hb_bus.dropped += h.dropped;
    inflight += ssim.shard(s).transport().inflight_messages();
  }
  for (const std::string& err :
       {CheckConservation("transport", drained.sent, drained.delivered,
                          drained.dropped, inflight),
        CheckConservation("heartbeat transport", hb_bus.sent,
                          hb_bus.delivered, hb_bus.dropped, 0)}) {
    if (!err.empty()) r.check_failures.push_back(err);
  }
  if (hb_bus.sent != hb_sent_all)
    r.check_failures.push_back(
        "heartbeat conservation broken: protocol sent " +
        std::to_string(hb_sent_all) + ", bus carried " +
        std::to_string(hb_bus.sent));
  if (hb_delivered_all > hb_bus.delivered)
    r.check_failures.push_back("heartbeat deliveries exceed bus deliveries");
  const std::uint64_t accounted =
      drained.delivered + drained.dropped + inflight;
  const std::uint64_t lost =
      drained.sent > accounted ? drained.sent - accounted : 0;

  std::uint64_t crashes = 0, undetected = 0;
  for (dht::NodeIndex n = 0; n < crash_at.size(); ++n) {
    if (crash_at[n] < 0.0) continue;
    ++crashes;
    if (n < detected.size() && detected[n]) continue;
    ++undetected;
    if (r.failure_examples.size() < 3)
      r.failure_examples.push_back(
          "node " + std::to_string(n) + " crashed at " +
          std::to_string(crash_at[n]) + " ms and was never detected");
  }
  if (late_detections > 0)
    r.failure_examples.push_back(std::to_string(late_detections) +
                                 " crashes detected after " +
                                 std::to_string(detect_bound_ms) + " ms");
  if (alive_declared_failed > 0)
    r.failure_examples.push_back(std::to_string(alive_declared_failed) +
                                 " alive nodes declared failed");
  if (lost > 0)
    r.failure_examples.push_back(std::to_string(lost) +
                                 " messages neither delivered nor dropped");
  r.attempted = drained.sent + crashes;
  r.failed = lost + late_detections + undetected + alive_declared_failed;

  // --- per-layer metrics ------------------------------------------------
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const double nhosts = static_cast<double>(hosts);
  layer["sim.events"] = static_cast<double>(events);
  layer["sim.ns_per_event"] = ratio(r.run_s * 1e9, static_cast<double>(events));
  layer["sim.slab_hwm"] = slab_hwm;
  layer["transport.sent"] = static_cast<double>(bus.sent);
  layer["transport.delivered"] = static_cast<double>(bus.delivered);
  layer["transport.dropped"] = static_cast<double>(bus.dropped);
  layer["transport.bytes"] = static_cast<double>(bus.bytes);
  layer["transport.delivery_ratio"] =
      ratio(static_cast<double>(bus.delivered), static_cast<double>(bus.sent));
  if (w.shards > 1) {
    const obs::MetricsRegistry& prof = ssim.kernel_profile();
    const double window_s = ProfileSumMs(prof, "shard.window_ms") / 1e3;
    layer["shard.windows"] = static_cast<double>(ssim.windows());
    layer["shard.cross_msgs"] = static_cast<double>(ssim.cross_shard_messages());
    layer["shard.cross_ratio"] =
        ratio(static_cast<double>(ssim.cross_shard_messages()),
              static_cast<double>(bus.sent));
    layer["shard.critical_path_s"] = ssim.critical_path_ns() / 1e9;
    layer["shard.window_s"] = window_s;
    layer["shard.drain_s"] = ProfileSumMs(prof, "shard.drain_ms") / 1e3;
    layer["shard.sort_s"] = ProfileSumMs(prof, "shard.sort_ms") / 1e3;
    layer["shard.exchange_s"] = ProfileSumMs(prof, "shard.exchange_ms") / 1e3;
    layer["shard.imbalance"] =
        ratio(ssim.critical_path_ns() / 1e9,
              busy_s / static_cast<double>(w.shards));
    layer["shard.mem_bytes_per_host"] =
        static_cast<double>(shard_bytes) / nhosts;
  }
  layer["net.oracle_bytes"] = static_cast<double>(oracle->MemoryBytes());
  layer["dht.ring_bytes"] = static_cast<double>(ring.MemoryBytes());
  layer["dht.heartbeat.sent"] = static_cast<double>(hb_sent);
  layer["dht.heartbeat.delivered"] = static_cast<double>(hb_delivered);
  layer["dht.heartbeat.failures_detected"] = static_cast<double>(hb_failures);
  layer["dht.heartbeat.false_suspicions"] = static_cast<double>(hb_false);
  layer["dht.leafset.repairs"] = sim0.metrics().Value("dht.leafset.repairs");
  layer["dht.detect_delay_ms_p50"] = Percentile(detect_delays, 50);
  layer["dht.detect_delay_ms_p99"] = Percentile(detect_delays, 99);
  layer["churn.crashes"] = static_cast<double>(crashes);
  layer["churn.joins"] = churn ? static_cast<double>(churn->joins()) : 0.0;
  layer["somo.messages"] = static_cast<double>(somo_msgs);
  layer["somo.bytes"] = static_cast<double>(somo_bytes);
  layer["somo.gathers"] = static_cast<double>(gathers);
  layer["somo.report_calls"] = static_cast<double>(calls);
  layer["churn.run_share"] = ratio(churn_run_s, r.run_s);
  layer["somo.rebuilds"] = static_cast<double>(rebuilds_run);
  layer["somo.rebuild_ms"] = rebuild_run_ms;
  layer["somo.churn_gathers"] = static_cast<double>(churn_gathers);
  layer["somo.root_staleness_ms"] = root_staleness;
  layer["alm.plan_ms_p50"] = r.plan_s * 1e3;
  layer["alm.plan_ms_p99"] = r.plan_s * 1e3;
  layer["alm.helpers_per_session"] = static_cast<double>(planned.helpers_used);
  layer["mem.bytes_per_host"] =
      static_cast<double>(ring.MemoryBytes() + shard_bytes) / nhosts;
  if (tracer != nullptr)
    *tracer->Counter("hook.somo_report") += static_cast<double>(calls);

  // Simulated outcomes: identical for every repetition of one seed.
  r.fingerprint = {
      {"events", static_cast<double>(events)},
      {"bus.sent", static_cast<double>(bus.sent)},
      {"bus.delivered", static_cast<double>(bus.delivered)},
      {"bus.dropped", static_cast<double>(bus.dropped)},
      {"bus.bytes", static_cast<double>(bus.bytes)},
      {"hb.sent", static_cast<double>(hb_sent)},
      {"hb.delivered", static_cast<double>(hb_delivered)},
      {"hb.failures", static_cast<double>(hb_failures)},
      {"hb.false_suspicions", static_cast<double>(hb_false)},
      {"somo.gathers", static_cast<double>(gathers)},
      {"somo.messages", static_cast<double>(somo_msgs)},
      {"somo.root_staleness_ms", root_staleness},
      {"somo.root_members", root_reg.Value("somo.root.members")},
      {"somo.rebuilds", static_cast<double>(rebuilds_run)},
      {"run.end_ms", end_ms},
      {"churn.start_ms", churn_start_ms},
      {"alert.fires", static_cast<double>(alerts.fires())},
      {"ring.alive", static_cast<double>(ring.alive_count())},
      {"churn.crashes", static_cast<double>(crashes)},
      {"shard.windows", static_cast<double>(ssim.windows())},
      {"shard.cross_msgs", static_cast<double>(ssim.cross_shard_messages())},
      {"plan.height_ms", planned.height_true},
      {"plan.helpers", static_cast<double>(planned.helpers_used)},
  };
  return r;
}

}  // namespace perfbench

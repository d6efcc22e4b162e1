// market_1200: the paper's resource pool (1200 hosts, leafset coordinates,
// bandwidth estimates) under a closed-loop stream of 20-member sessions
// admitted through MarketScheduler::AddSession with leafset+adj planning.
//
// One client admits the next session as soon as the previous admission
// (with its preemption cascade) returns. The live session count ramps
// 10 -> 60 -> 10 every kRampAdmissions admissions, like the paper's
// Figure 10 sweep; sessions
// leave oldest-first through RemoveSession, live member sets never
// overlap, priorities are drawn from 1..3, and every kSweepEvery
// admissions the market runs a ReschedulingSweep.
#include <cmath>
#include <deque>
#include <memory>
#include <set>
#include <unordered_map>

#include "alm/planner.h"
#include "alm/strategy.h"
#include "bench.h"
#include "checks.h"
#include "pool/market.h"
#include "pool/resource_pool.h"

namespace perfbench {
namespace {

using namespace p2p;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMembers = 20;  // per session, root included
constexpr std::size_t kMinLive = 10;
constexpr std::size_t kMaxLive = 60;
constexpr std::size_t kSweepEvery = 50;
constexpr std::size_t kRampAdmissions = 1200;

// Live-session target for admission i: 10 -> 60 -> 10 per ramp.
std::size_t LiveTarget(std::size_t i) {
  const double phase = static_cast<double>(i % kRampAdmissions) /
                       static_cast<double>(kRampAdmissions);
  const double tri = 1.0 - std::fabs(2.0 * phase - 1.0);
  return kMinLive + static_cast<std::size_t>(std::lround(
                        tri * static_cast<double>(kMaxLive - kMinLive)));
}

// The input TaskManager::Schedule builds for `spec` against the live
// registry (no bandwidth cap), for the traced planning probe.
alm::PlanInput ProbeInput(pool::ResourcePool& rp, const alm::SessionSpec& spec) {
  std::vector<char> is_member(rp.size(), 0);
  is_member[spec.root] = 1;
  for (const auto m : spec.members) is_member[m] = 1;
  alm::PlanInput in;
  in.degree_bounds.resize(rp.size());
  for (std::size_t v = 0; v < rp.size(); ++v) {
    in.degree_bounds[v] =
        is_member[v]
            ? rp.registry().AvailableFor(v, somo::kHighestPriority, true)
            : rp.registry().AvailableFor(v, spec.priority, false);
    if (!is_member[v] && in.degree_bounds[v] >= 4)
      in.helper_candidates.push_back(v);
  }
  in.root = spec.root;
  in.members = spec.members;
  in.true_latency = rp.TrueLatencyFn();
  in.estimated_latency = rp.EstimatedLatencyFn();
  return in;
}

}  // namespace

RepResult RunMarketRep(const WorkloadSpec& w, std::uint64_t seed,
                       Tracer* tracer, bool setup_only) {
  RepResult r;
  auto& layer = r.layer;
  const auto start = Clock::now();
  // The pool is the paper's fixed configuration (PoolConfig defaults); the
  // seed drives the session stream. Pools built from different seeds
  // differ in planning cost by up to a third, which would swamp the
  // run-to-run spread the bounds are set against.
  const pool::PoolConfig cfg;
  std::unique_ptr<pool::ResourcePool> rp;
  {
    ScopedSpan span(tracer, "setup.pool_build");
    rp = std::make_unique<pool::ResourcePool>(cfg);
  }
  layer["pool.build_s"] = SecondsSince(start);
  pool::MarketScheduler market(*rp, pool::TaskManagerOptions{});
  r.setup_s = SecondsSince(start);
  if (setup_only) return r;

  const alm::LatencyFn truth = rp->TrueLatencyFn();
  util::Rng rng(seed ^ 0x6d61726bULL);
  std::vector<std::size_t> free_hosts(rp->size());
  for (std::size_t h = 0; h < free_hosts.size(); ++h) free_hosts[h] = h;
  std::deque<alm::SessionId> live;  // admission order
  std::unordered_map<alm::SessionId, alm::SessionSpec> specs;

  std::vector<double> remove_ms, sweep_ms, plan_ms, utilisation, helpers;
  double heights = 0.0;
  // A session left unscheduled, or holding a tree its reservations no
  // longer cover, is a failed admission (counted once per session). A
  // structurally invalid tree is a correctness failure.
  std::set<alm::SessionId> failed_sessions;
  std::string tree_error;
  const auto fail = [&](alm::SessionId id, const std::string& why) {
    if (failed_sessions.insert(id).second && r.failure_examples.size() < 3)
      r.failure_examples.push_back("session " + std::to_string(id) + " " +
                                   why);
  };
  const auto validate_live = [&] {
    for (const alm::SessionId id : live) {
      const pool::TaskManager& tm = market.session(id);
      const alm::SessionSpec& spec = specs.at(id);
      if (!tm.scheduled()) {
        fail(id, "left unscheduled");
        continue;
      }
      const alm::MulticastTree& tree = *tm.current_tree();
      const std::string err = CheckTree(
          tree, spec.root, spec.members,
          [&rp](alm::ParticipantId v) { return rp->degree_bound(v); }, truth,
          tm.current_height());
      if (!err.empty()) {
        if (tree_error.empty())
          tree_error = "session " + std::to_string(id) + ": " + err;
        continue;
      }
      for (const alm::ParticipantId v : tree.members()) {
        const int degree = static_cast<int>(tree.children(v).size()) +
                           (v == spec.root ? 0 : 1);
        const int held = rp->registry().HeldBy(v, id);
        if (held != degree) {
          fail(id, "holds " + std::to_string(held) + " slots at node " +
                       std::to_string(v) + " for tree degree " +
                       std::to_string(degree));
          break;
        }
      }
    }
  };
  const auto remove_oldest = [&] {
    const alm::SessionId id = live.front();
    live.pop_front();
    {
      ScopedSpan span(tracer, "market.remove_session");
      const auto t0 = Clock::now();
      market.RemoveSession(id);
      remove_ms.push_back(SecondsSince(t0) * 1e3);
    }
    const alm::SessionSpec& spec = specs.at(id);
    free_hosts.push_back(spec.root);
    free_hosts.insert(free_hosts.end(), spec.members.begin(),
                      spec.members.end());
    specs.erase(id);
  };

  const std::size_t n = w.admissions;
  const double cpu_start = ProcessCpuSeconds();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t target = LiveTarget(i);
    while (live.size() >= target) remove_oldest();

    alm::SessionSpec spec;
    spec.id = static_cast<alm::SessionId>(i + 1);
    spec.priority = static_cast<int>(
        rng.UniformInt(somo::kHighestPriority, somo::kLowestPriority));
    for (std::size_t k = 0; k < kMembers; ++k) {
      const std::size_t pick = rng.NextBounded(free_hosts.size());
      const std::size_t host = free_hosts[pick];
      free_hosts[pick] = free_hosts.back();
      free_hosts.pop_back();
      if (k == 0) {
        spec.root = host;
      } else {
        spec.members.push_back(host);
      }
    }
    if (tracer != nullptr) {
      // Planning cost alone, on the input the admission is about to see.
      const alm::PlanInput in = ProbeInput(*rp, spec);
      alm::TreePlanner planner(
          alm::OptionsForStrategy(alm::Strategy::kLeafsetAdjust));
      ScopedSpan span(tracer, "alm.plan");
      const auto t0 = Clock::now();
      planner.Plan(in);
      plan_ms.push_back(SecondsSince(t0) * 1e3);
    }
    specs.emplace(spec.id, spec);
    {
      ScopedSpan span(tracer, "market.add_session");
      const auto t0 = Clock::now();
      market.AddSession(spec);
      r.op_ms.push_back(SecondsSince(t0) * 1e3);
    }
    live.push_back(spec.id);

    validate_live();
    const pool::TaskManager& tm = market.session(spec.id);
    if (tm.scheduled()) {
      heights += tm.current_height();
      helpers.push_back(static_cast<double>(tm.current_helpers()));
    }
    utilisation.push_back(
        static_cast<double>(rp->registry().TotalUsed()) /
        static_cast<double>(rp->registry().TotalCapacity()));

    if ((i + 1) % kSweepEvery == 0) {
      ScopedSpan span(tracer, "market.sweep");
      const auto t0 = Clock::now();
      market.ReschedulingSweep(rng);
      sweep_ms.push_back(SecondsSince(t0) * 1e3);
      validate_live();
    }
  }
  while (!live.empty()) remove_oldest();

  double run_s = 0.0;
  for (const auto* xs : {&r.op_ms, &remove_ms, &sweep_ms})
    for (const double ms : *xs) run_s += ms / 1e3;
  r.run_s = run_s;
  r.run_cpu_s = ProcessCpuSeconds() - cpu_start;  // includes the checks
  r.work = static_cast<double>(n);
  r.attempted = n;
  r.failed = failed_sessions.size();

  if (!tree_error.empty())
    r.check_failures.push_back("planned tree: " + tree_error);
  const std::string drained = CheckRegistryDrained(rp->registry());
  if (!drained.empty()) r.check_failures.push_back(drained);

  double helper_sum = 0.0;
  for (const double h : helpers) helper_sum += h;
  double util_sum = 0.0;
  for (const double u : utilisation) util_sum += u;
  const auto mean = [](double sum, std::size_t count) {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  };
  layer["alm.plan_ms_p50"] = Percentile(plan_ms, 50);
  layer["alm.plan_ms_p99"] = Percentile(plan_ms, 99);
  layer["alm.helpers_per_session"] = mean(helper_sum, helpers.size());
  layer["pool.sweep_ms"] = Percentile(sweep_ms, 50);
  layer["pool.remove_ms"] = Percentile(remove_ms, 50);
  layer["pool.reschedules"] = static_cast<double>(market.total_reschedules());
  layer["pool.preemptions"] = static_cast<double>(market.total_preemptions());
  layer["pool.replans_per_admit"] =
      mean(static_cast<double>(market.total_reschedules()), n);
  layer["pool.utilisation"] = mean(util_sum, utilisation.size());

  r.fingerprint = {
      {"admissions", static_cast<double>(n)},
      {"failed", static_cast<double>(r.failed)},
      {"height_sum_ms", heights},
      {"helpers_sum", helper_sum},
      {"utilisation_sum", util_sum},
      {"reschedules", static_cast<double>(market.total_reschedules())},
      {"preemptions", static_cast<double>(market.total_preemptions())},
  };
  return r;
}

}  // namespace perfbench

// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload fullstack_10k --seed 1 --seconds 15 --trace 0
//   perfbench --selftest
//
// Runs one workload for about --seconds seconds as a series of same-seed
// repetitions (at least two, so the simulated outcomes can be compared),
// checks every repetition's outputs, and prints as its last stdout line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run alternates untraced and traced repetitions:
// per-layer numbers come from the traced ones, and obs.trace_overhead is
// the traced throughput over the untraced throughput of the same process.
// Exit status: 0 ok, 1 a correctness check failed, 2 bad arguments,
// 3 the workload needs more threads than this machine has.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "util/stats.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"fullstack_10k", Family::kSim, "10k", 1, 1, 20000.0, 10.0, false, 0},
      {"sharded_50k", Family::kSim, "50k", 2, 2, 10000.0, 1000.0, false, 0},
      {"market_1200", Family::kMarket, "1200", 1, 1, 0.0, 0.0, false, 2400},
      {"churn_10k", Family::kSim, "10k", 1, 1, 12000.0, 5.0, true, 0},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads())
    if (name == w.name) return &w;
  return nullptr;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t SetupThreads() {
  return std::min<std::size_t>(
      Nproc(), std::max(1u, std::thread::hardware_concurrency()));
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double Percentile(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : p2p::util::Percentile(xs, p);
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (untraced runs). "Work" and "op" are per family:
// simulated seconds and RunUntil slices of WorkloadSpec::slice_ms on the sim
// workloads, sessions and AddSession calls on market_1200.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},       {"wall_s", "s"},         {"throughput", "1/s"},
    {"op_p50_ms", "ms"},    {"op_p99_ms", "ms"},     {"peak_rss_mib", "MiB"},
};

// Per-layer metrics (traced runs); layers a workload does not exercise
// report 0.
const std::vector<MetricDef> kPerLayer = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.slab_hwm", "count"},
    {"transport.sent", "count"},
    {"transport.delivered", "count"},
    {"transport.dropped", "count"},
    {"transport.bytes", "bytes"},
    {"transport.delivery_ratio", "ratio"},
    {"shard.windows", "count"},
    {"shard.cross_msgs", "count"},
    {"shard.cross_ratio", "ratio"},
    {"shard.critical_path_s", "s"},
    {"shard.window_s", "s"},
    {"shard.drain_s", "s"},
    {"shard.sort_s", "s"},
    {"shard.exchange_s", "s"},
    {"shard.imbalance", "ratio"},
    {"shard.mem_bytes_per_host", "bytes/host"},
    {"net.topo_s", "s"},
    {"net.oracle_build_s", "s"},
    {"net.shard_plan_s", "s"},
    {"net.oracle_bytes", "bytes"},
    {"net.oracle_query_ns", "ns"},
    {"dht.join_s", "s"},
    {"dht.ring_bytes", "bytes"},
    {"dht.heartbeat.sent", "count"},
    {"dht.heartbeat.delivered", "count"},
    {"dht.heartbeat.failures_detected", "count"},
    {"dht.heartbeat.false_suspicions", "count"},
    {"dht.leafset.repairs", "count"},
    {"dht.detect_delay_ms_p50", "ms"},
    {"dht.detect_delay_ms_p99", "ms"},
    {"churn.crashes", "count"},
    {"churn.joins", "count"},
    {"churn.run_share", "ratio"},
    {"somo.messages", "count"},
    {"somo.bytes", "bytes"},
    {"somo.gathers", "count"},
    {"somo.report_calls", "count"},
    {"somo.rebuilds", "count"},
    {"somo.rebuild_ms", "ms"},
    {"somo.churn_gathers", "count"},
    {"somo.root_staleness_ms", "ms"},
    {"alm.plan_ms_p50", "ms"},
    {"alm.plan_ms_p99", "ms"},
    {"alm.helpers_per_session", "count"},
    {"pool.build_s", "s"},
    {"pool.sweep_ms", "ms"},
    {"pool.remove_ms", "ms"},
    {"pool.reschedules", "count"},
    {"pool.preemptions", "count"},
    {"pool.replans_per_admit", "ratio"},
    {"pool.utilisation", "ratio"},
    {"mem.bytes_per_host", "bytes/host"},
    {"obs.trace_overhead", "ratio"},
};

constexpr std::size_t kMinReps = 2;
// Set-ups behind the setup_s median: at least kMinSetups, and more (up to
// kMaxSetups) while the set-ups sampled add up to less than kSetupBudgetS.
// Up to kSetupsPerRep set-up-only repetitions run before each repetition,
// so the samples spread over the run rather than bunch at its end; their
// time does not count against --seconds.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kSetupsPerRep = 4;
constexpr std::size_t kMaxSetups = 21;
constexpr double kSetupBudgetS = 3.0;
constexpr std::size_t kMaxReps = 64;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir;
  bool selftest = false;
};

int Usage(const char* err) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n"
               "       perfbench --selftest\n"
               "workloads:",
               err);
  for (const WorkloadSpec& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

// Parses every flag before any work; false on an unknown flag or a bad
// value.
bool ParseArgs(int argc, char** argv, Args& a, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--out") {
      err = "unknown flag '" + flag + "'";
      return false;
    }
    if (i + 1 >= argc) {
      err = "flag " + flag + " needs a value";
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--out") {
      a.out_dir = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || value[0] == '-') {
        err = "bad --seed '" + value + "'";
        return false;
      }
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0.0)) {
        err = "bad --seconds '" + value + "'";
        return false;
      }
    } else {
      if (value != "0" && value != "1") {
        err = "bad --trace '" + value + "' (0|1)";
        return false;
      }
      a.trace = value == "1" ? 1 : 0;
    }
  }
  if (a.selftest) return true;
  if (a.workload.empty()) {
    err = "--workload is required";
    return false;
  }
  if (FindWorkload(a.workload) == nullptr) {
    err = "unknown workload '" + a.workload + "'";
    return false;
  }
  return true;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(const std::vector<double>& xs) { return Percentile(xs, 50); }

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonMetrics(const std::vector<MetricDef>& defs,
                        const std::map<std::string, double>& values) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    os << (i == 0 ? "" : ", ") << "\"" << defs[i].name << "\": {\"value\": "
       << Num(v) << ", \"unit\": \"" << defs[i].unit << "\"}";
  }
  os << "}";
  return os.str();
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

void PrintSelfTimes(const Tracer& tracer, std::size_t traced_reps) {
  const auto rows = tracer.SelfTimes();
  std::vector<std::pair<std::string, Tracer::Row>> sorted(rows.begin(),
                                                          rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  double total_self = 0.0;
  for (const auto& [name, row] : sorted) total_self += row.self_ms;
  const double reps = static_cast<double>(std::max<std::size_t>(1, traced_reps));
  std::printf("per-layer self time (mean per traced repetition, %zu reps)\n",
              traced_reps);
  std::printf("  %-24s %8s %12s %12s %7s %12s\n", "span", "calls/rep",
              "total ms", "self ms", "self %", "events");
  for (const auto& [name, row] : sorted) {
    std::printf("  %-24s %8.0f %12.3f %12.3f %6.1f%% %12.0f\n", name.c_str(),
                static_cast<double>(row.calls) / reps, row.total_ms / reps,
                row.self_ms / reps,
                total_self > 0.0 ? 100.0 * row.self_ms / total_self : 0.0,
                static_cast<double>(row.events) / reps);
  }
  std::printf("hook counters (summed over traced repetitions)\n");
  for (const auto& [name, value] : tracer.Counters())
    std::printf("  %-36s %14.0f\n", name.c_str(), value);
}

void PrintLayerTable(const std::map<std::string, double>& values) {
  std::printf("per-layer metrics\n");
  for (const MetricDef& d : kPerLayer) {
    const auto it = values.find(d.name);
    std::printf("  %-34s %18.6g %s\n", d.name,
                it == values.end() ? 0.0 : it->second, d.unit);
  }
}

int Run(const Args& args) {
  const WorkloadSpec& w = *FindWorkload(args.workload);
  const std::size_t nproc = Nproc();
  std::ostringstream env;
  env << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
      << ", \"trace\": " << args.trace << ", \"seconds\": " << Num(args.seconds)
      << ", \"nproc\": " << nproc << ", \"threads\": " << w.threads
      << ", \"setup_threads\": " << SetupThreads()
      << ", \"shards\": " << w.shards << ", \"build_type\": \""
      << PERFBENCH_BUILD_TYPE << "\", \"preset\": \"" << w.preset << "\"";
  if (w.threads > nproc) {
    std::fprintf(stderr,
                 "perfbench: %s needs %zu threads but only %zu CPUs are "
                 "available; refusing to run\n",
                 w.name, w.threads, nproc);
    return 3;
  }

  Tracer tracer;
  std::vector<RepResult> plain, traced;
  std::vector<std::string> failures, examples;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> setups;
  double setup_sum = 0.0;
  const auto add_setup = [&](double s) {
    setups.push_back(s);
    setup_sum += s;
  };
  const auto setup_budget_left = [&] {
    return setups.size() < kMaxSetups && setup_sum < kSetupBudgetS;
  };
  double setup_only_s = 0.0;
  const auto sample_setup = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    add_setup(w.family == Family::kSim
                  ? RunSimRep(w, args.seed, nullptr, true).setup_s
                  : RunMarketRep(w, args.seed, nullptr, true).setup_s);
    setup_only_s += SecondsSince(t0);
  };
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t rep = 0; rep < kMaxReps; ++rep) {
    if (rep >= kMinReps && SecondsSince(start) - setup_only_s >= args.seconds)
      break;
    if (args.trace == 0)
      for (std::size_t k = 0; k < kSetupsPerRep && setup_budget_left(); ++k)
        sample_setup();
    const bool trace_this = args.trace == 1 && rep % 2 == 1;
    Tracer* tr = trace_this ? &tracer : nullptr;
    RepResult r;
    {
      ScopedSpan span(tr, "rep");
      r = w.family == Family::kSim ? RunSimRep(w, args.seed, tr, false)
                                   : RunMarketRep(w, args.seed, tr, false);
    }
    if (!trace_this) add_setup(r.setup_s);
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& f : r.check_failures)
      failures.push_back("rep " + std::to_string(rep) + ": " + f);
    if (rep == 0) examples = r.failure_examples;
    const RepResult& first = plain.empty() ? r : plain.front();
    for (std::size_t k = 0; k < r.fingerprint.size(); ++k) {
      const auto& [key, value] = r.fingerprint[k];
      const double ref = first.fingerprint.at(k).second;
      if (value != ref && !(std::isnan(value) && std::isnan(ref)))
        failures.push_back("simulated counts differ between same-seed "
                           "repetitions: " + key + " " + Num(ref) + " vs " +
                           Num(value));
    }
    (trace_this ? traced : plain).push_back(std::move(r));
  }

  const auto collect = [](const std::vector<RepResult>& reps, auto f) {
    std::vector<double> xs;
    for (const RepResult& r : reps) xs.push_back(f(r));
    return xs;
  };
  const auto throughput = [](const RepResult& r) { return r.work / r.run_s; };
  std::map<std::string, double> metrics;
  std::size_t op_samples = 0;
  if (args.trace == 0) {
    for (const RepResult& r : plain) op_samples += r.op_ms.size();
    while (setups.size() < kMinSetups || setup_budget_left()) sample_setup();
    metrics["setup_s"] = Median(setups);
    metrics["wall_s"] = Median(collect(plain, [](const RepResult& r) {
      return r.wall_s();
    }));
    metrics["throughput"] = Median(collect(plain, throughput));
    // Op percentiles are taken per repetition, then the median across
    // repetitions: one stalled slice moves one repetition's tail, not the
    // reported one.
    metrics["op_p50_ms"] = Median(collect(plain, [](const RepResult& r) {
      return Percentile(r.op_ms, 50);
    }));
    metrics["op_p99_ms"] = Median(collect(plain, [](const RepResult& r) {
      return Percentile(r.op_ms, 99);
    }));
    metrics["peak_rss_mib"] = PeakRssMib();
  } else {
    std::map<std::string, std::vector<double>> by_name;
    for (const RepResult& r : traced)
      for (const auto& [name, value] : r.layer) by_name[name].push_back(value);
    for (const auto& [name, values] : by_name) metrics[name] = Median(values);
    metrics["obs.trace_overhead"] =
        Median(collect(traced, throughput)) / Median(collect(plain, throughput));
  }
  for (const auto& [name, value] : metrics)
    if (!std::isfinite(value))
      failures.push_back("metric " + name + " is not finite");

  env << ", \"reps\": " << plain.size() + traced.size()
      << ", \"setups\": " << setups.size() << ", \"op_samples\": " << op_samples
      << "}";
  const std::vector<MetricDef>& defs = args.trace == 0 ? kEndToEnd : kPerLayer;
  const bool correct = failures.empty();

  if (args.trace == 1) {
    PrintSelfTimes(tracer, traced.size());
    PrintLayerTable(metrics);
  }
  for (const std::string& e : examples)
    std::printf("failed op (per repetition): %s\n", e.c_str());
  for (const std::string& f : failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());

  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": " << JsonMetrics(defs, metrics) << "}";

  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             std::to_string(args.trace);
    std::ofstream row(stem + ".json");
    row << "{\"env\": " << env.str() << ", \"result\": " << result.str()
        << ", \"check_failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
      row << (i == 0 ? "" : ", ") << JsonString(failures[i]);
    row << "], \"setup_samples\": [";
    for (std::size_t i = 0; i < setups.size(); ++i)
      row << (i == 0 ? "" : ", ") << Num(setups[i]);
    row << "], \"reps\": [";
    std::size_t i = 0;
    for (const auto* reps : {&plain, &traced}) {
      for (const RepResult& r : *reps) {
        row << (i++ == 0 ? "" : ", ") << "{\"traced\": "
            << (reps == &traced ? "true" : "false")
            << ", \"setup_s\": " << Num(r.setup_s)
            << ", \"run_s\": " << Num(r.run_s)
            << ", \"run_cpu_s\": " << Num(r.run_cpu_s)
            << ", \"plan_s\": " << Num(r.plan_s) << "}";
      }
    }
    row << "]}\n";
    if (args.trace == 1) std::ofstream(stem + ".spans.json") << tracer.ToJson();
  }
  std::printf("{\"env\": %s}\n", env.str().c_str());
  std::printf("%s\n", result.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string err;
  if (!perfbench::ParseArgs(argc, argv, args, err))
    return perfbench::Usage(err.c_str());
  try {
    if (args.selftest) return perfbench::RunSelfTest();
    return perfbench::Run(args);
  } catch (const std::exception& e) {
    std::printf("CHECK FAILED: %s\n", e.what());
    return 1;
  }
}

// Shared types of the benchmark program: the workload table, one
// repetition's measurements, and the entry points of each workload family.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

enum class Family { kSim, kMarket };

struct WorkloadSpec {
  const char* name;
  Family family;
  const char* preset;        // topology preset (1200 = the paper pool)
  std::size_t shards;        // simulation shards (1 = the serial kernel)
  std::size_t threads;       // run-phase threads (shard workers)
  double horizon_ms;         // simulated time per repetition (sim only)
  double slice_ms;           // simulated time per timed RunUntil slice
  bool churn;                // churn, loss, suspicion, SOMO dissemination
  std::size_t admissions;    // sessions admitted per repetition (market)
};

// The kept workloads; run.py and BENCHMARK.json name the same set.
const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

// One repetition: a full set-up plus the timed main loop, then the
// correctness checks (outside the timed region).
struct RepResult {
  double setup_s = 0.0;   // start -> first simulated event / admission
  double run_s = 0.0;     // the timed main loop (RunUntil slices / market)
  double plan_s = 0.0;    // ALM planning after the run (sim workloads)
  double run_cpu_s = 0.0; // process CPU time over the timed main loop
  double work = 0.0;      // simulated seconds advanced, or sessions admitted
  std::vector<double> op_ms;  // per-slice or per-AddSession wall times
  // Per-layer metrics of this repetition (name -> value).
  std::map<std::string, double> layer;
  // Simulated outcomes that must repeat exactly under the same seed.
  std::vector<std::pair<std::string, double>> fingerprint;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<std::string> failure_examples;  // a few of the failed ops

  double wall_s() const { return setup_s + run_s + plan_s; }
};

// With `setup_only` a repetition returns right after its set-up, with only
// setup_s filled in: extra set-ups give setup_s a median over several.
RepResult RunSimRep(const WorkloadSpec& w, std::uint64_t seed, Tracer* tracer,
                    bool setup_only);
RepResult RunMarketRep(const WorkloadSpec& w, std::uint64_t seed,
                       Tracer* tracer, bool setup_only);

// CPUs this process may run on (its affinity mask).
std::size_t Nproc();
// Threads of the set-up pool, sized as the CLI sizes its pool (hardware
// concurrency), capped at Nproc().
std::size_t SetupThreads();

// Wall seconds since `start`.
double SecondsSince(std::chrono::steady_clock::time_point start);
// CPU seconds used by this process so far (all threads).
double ProcessCpuSeconds();
// p-th percentile (0..100) of xs, 0 when xs is empty.
double Percentile(const std::vector<double>& xs, double p);

}  // namespace perfbench

// In-memory span and counter recorder for the benchmark's traced runs.
//
// Spans are recorded around the benchmark's own calls into the library
// (setup calls, RunUntil slices, market operations, plans); counters are
// bumped at the hooks the benchmark registers (heartbeat and failure
// observers, churn callbacks, the SOMO report provider). Everything stays
// in memory until the run ends, then the spans are written as JSON and
// folded into a self-time table: a span's self time is its duration minus
// the time its direct children cover.
//
// A null Tracer* means "untraced": ScopedSpan and CounterSlot collapse to
// a pointer test, so the untraced run pays nothing measurable.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;  // index into spans(), -1 for a top-level span
    std::int64_t events = -1;  // simulated events fired inside, -1 if n/a
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::size_t Begin(const char* name);
  void End(std::size_t idx);
  void SetEvents(std::size_t idx, std::int64_t events) {
    spans_[idx].events = events;
  }

  // A stable counter cell: hooks increment through the pointer without a
  // map lookup per call. Cells live in a deque, so pointers never move.
  double* Counter(const std::string& name);

  const std::vector<Span>& spans() const { return spans_; }
  std::map<std::string, double> Counters() const;

  // Per span name: calls, total and self milliseconds, simulated events.
  struct Row {
    std::size_t calls = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::int64_t events = 0;
  };
  std::map<std::string, Row> SelfTimes() const;

  // {"spans": [...], "counters": {...}} — one object per span with its
  // name, start/end (ns since the tracer was created), parent and events.
  std::string ToJson() const;

 private:
  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  // stack of open span indices
  std::deque<double> cells_;
  std::map<std::string, double*> counter_names_;
};

// RAII span; a no-op when the tracer is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), idx_(tracer != nullptr ? tracer->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_events(std::int64_t events) {
    if (tracer_ != nullptr) tracer_->SetEvents(idx_, events);
  }

 private:
  Tracer* tracer_;
  std::size_t idx_;
};

// Counter cell for a hook, or null when untraced.
inline double* CounterSlot(Tracer* tracer, const std::string& name) {
  return tracer != nullptr ? tracer->Counter(name) : nullptr;
}

}  // namespace perfbench

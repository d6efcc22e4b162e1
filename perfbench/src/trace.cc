#include "trace.h"

#include <sstream>

namespace perfbench {

std::size_t Tracer::Begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(std::size_t idx) {
  spans_[idx].end_ns = NowNs();
  // Spans are strictly nested (RAII), so the closing span is on top.
  if (!open_.empty() && open_.back() == idx) open_.pop_back();
}

double* Tracer::Counter(const std::string& name) {
  auto it = counter_names_.find(name);
  if (it != counter_names_.end()) return it->second;
  cells_.push_back(0.0);
  double* cell = &cells_.back();
  counter_names_.emplace(name, cell);
  return cell;
}

std::map<std::string, double> Tracer::Counters() const {
  std::map<std::string, double> out;
  for (const auto& [name, cell] : counter_names_) out[name] = *cell;
  return out;
}

std::map<std::string, Tracer::Row> Tracer::SelfTimes() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Row& row = rows[s.name];
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    ++row.calls;
    row.total_ms += ms;
    row.self_ms += ms - child_ms[i];
    if (s.events >= 0) row.events += s.events;
  }
  return rows;
}

std::string Tracer::ToJson() const {
  std::ostringstream os;
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
       << s.name << "\", \"start_ns\": " << s.start_ns
       << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent;
    if (s.events >= 0) os << ", \"events\": " << s.events;
    os << "}";
  }
  os << "\n], \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : Counters()) {
    os << (first ? "\n" : ",\n") << "  \"" << name << "\": " << value;
    first = false;
  }
  os << "\n}}\n";
  return os.str();
}

}  // namespace perfbench

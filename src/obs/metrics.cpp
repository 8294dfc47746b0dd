#include "obs/metrics.hpp"

#include <charconv>
#include <cmath>
#include <sstream>

namespace semperm::obs {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];  // the longest shortest form, -1.7976931348623157e+308, is 24
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

namespace {

void escape_json_str(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
}

}  // namespace

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mu_);
  for (auto& e : counters_)
    if (e.name == name) return *e.value;
  counters_.push_back(Entry<Counter>{name, std::make_unique<Counter>()});
  return *counters_.back().value;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  for (auto& e : gauges_)
    if (e.name == name) return *e.value;
  gauges_.push_back(Entry<Gauge>{name, std::make_unique<Gauge>()});
  return *gauges_.back().value;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::uint64_t bucket_width) {
  MutexLock lock(mu_);
  for (auto& e : histograms_)
    if (e.name == name) return *e.value;
  histograms_.push_back(
      Entry<Histogram>{name, std::make_unique<Histogram>(bucket_width)});
  return *histograms_.back().value;
}

void MetricsRegistry::sample([[maybe_unused]] std::uint64_t sim_ts) {
#if SEMPERM_TRACE
  if (!trace_on()) return;
  MutexLock lock(mu_);
  // Metric names live in registry entries whose strings can relocate
  // with the vectors, so they are exported through interned tracks
  // (stable ids) rather than the event's static-name slot.
  for (auto& e : counters_)
    emit_event(EventKind::kCounter, Category::kApp, "",
               intern_track(e.name), 0,
               static_cast<double>(e.value->value()), sim_ts);
  for (auto& e : gauges_)
    emit_event(EventKind::kCounter, Category::kApp, "",
               intern_track(e.name), 0, e.value->value(), sim_ts);
#endif
}

std::vector<std::pair<std::string, BucketHistogram>>
MetricsRegistry::histogram_snapshots() const {
  MutexLock lock(mu_);
  std::vector<std::pair<std::string, BucketHistogram>> out;
  out.reserve(histograms_.size());
  for (const auto& e : histograms_) out.emplace_back(e.name, e.value->snapshot());
  return out;
}

std::string MetricsRegistry::to_csv() const {
  MutexLock lock(mu_);
  std::ostringstream os;
  os << "kind,name,value\n";
  for (const auto& e : counters_)
    os << "counter," << e.name << ',' << e.value->value() << '\n';
  for (const auto& e : gauges_)
    os << "gauge," << e.name << ',' << e.value->value() << '\n';
  for (const auto& e : histograms_) {
    const BucketHistogram h = e.value->snapshot();
    for (std::size_t i = 0; i < h.bucket_count(); ++i)
      os << "histogram," << e.name << '[' << h.bucket_label(i) << "],"
         << h.bucket(i) << '\n';
  }
  return os.str();
}

std::string MetricsRegistry::to_json() const {
  MutexLock lock(mu_);
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& e : counters_) {
    if (!first) os << ',';
    first = false;
    os << '"';
    escape_json_str(os, e.name);
    os << "\":" << e.value->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& e : gauges_) {
    if (!first) os << ',';
    first = false;
    os << '"';
    escape_json_str(os, e.name);
    os << "\":" << json_number(e.value->value());
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& e : histograms_) {
    if (!first) os << ',';
    first = false;
    const BucketHistogram h = e.value->snapshot();
    os << '"';
    escape_json_str(os, e.name);
    os << "\":{\"bucket_width\":" << h.bucket_width() << ",\"total\":"
       << h.total() << ",\"mean\":" << json_number(h.mean())
       << ",\"p50\":" << json_number(h.quantile(0.50))
       << ",\"p99\":" << json_number(h.quantile(0.99))
       << ",\"p999\":" << json_number(h.quantile(0.999)) << ",\"buckets\":[";
    for (std::size_t i = 0; i < h.bucket_count(); ++i) {
      if (i != 0) os << ',';
      os << h.bucket(i);
    }
    os << "]}";
  }
  os << "}}";
  return os.str();
}

void MetricsRegistry::reset_values() {
  MutexLock lock(mu_);
  for (auto& e : counters_) e.value->reset();
  for (auto& e : gauges_) e.value->reset();
  for (auto& e : histograms_) e.value->reset();
}

}  // namespace semperm::obs

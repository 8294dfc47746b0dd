// semperm/obs/metrics.hpp
//
// MetricsRegistry: named counters, gauges, and histograms for code that
// wants aggregate instrumentation without threading stats structs
// through every layer. Built on common/histogram for the histogram
// kind. Registered metrics can be sampled onto the trace timeline
// (sample() emits one counter event per metric at the caller's
// simulated timestamp), dumped as CSV, or serialized into the bench
// --json report.
//
// Unlike the probe macros, the registry is available in ALL build
// configurations — it is plain data, costs nothing unless used, and
// lets tests assert on metric values without a trace session. Only the
// sample()-to-timeline hook is trace-gated.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/trace.hpp"

namespace semperm::obs {

/// Monotone event count. Relaxed atomics: totals are read after the
/// producing threads are joined.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous level (queue depth, resident lines).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Mutex-guarded BucketHistogram (add() is off the simulated hot path:
/// callers record per-attempt values, not per-access values).
class Histogram {
 public:
  explicit Histogram(std::uint64_t bucket_width) : hist_(bucket_width) {}

  void add(std::uint64_t value, std::uint64_t count = 1) {
    MutexLock lock(mu_);
    hist_.add(value, count);
  }
  BucketHistogram snapshot() const {
    MutexLock lock(mu_);
    return hist_;
  }
  void reset() {
    MutexLock lock(mu_);
    hist_ = BucketHistogram(hist_.bucket_width());
  }

 private:
  mutable Mutex mu_;
  BucketHistogram hist_ GUARDED_BY(mu_);
};

/// `v` as a JSON number that parses back to exactly `v`: the shortest
/// round-trip digits (std::to_chars), so 3348408 stays 3348408 and 0.1
/// stays 0.1. JSON has no NaN or infinity; those are written as null.
/// The bench reports, the registry and the trace export all write their
/// numbers through it.
std::string json_number(double v);

/// Process-wide registry. Handles returned by counter()/gauge()/
/// histogram() are stable for the process lifetime (never freed), so
/// components may cache them at construction.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::uint64_t bucket_width);

  /// Emit every counter and gauge as a counter event on the trace
  /// timeline at simulated timestamp `sim_ts` (no-op when tracing is
  /// compiled out or no session is recording).
  void sample(std::uint64_t sim_ts);

  /// Name + snapshot of every registered histogram, in registration
  /// order — the enumeration hook bench_util uses to flatten tail
  /// quantiles (<name>_p50/_p99/_p999) into the --json metrics object.
  std::vector<std::pair<std::string, BucketHistogram>> histogram_snapshots()
      const;

  /// "kind,name,value" CSV rows (histograms flattened per bucket).
  std::string to_csv() const;
  /// {"counters":{...},"gauges":{...},"histograms":{...}} fragment for
  /// the bench --json report.
  std::string to_json() const;

  /// Zero all values; keeps registrations (cached handles stay valid).
  void reset_values();

 private:
  MetricsRegistry() = default;

  template <typename T>
  struct Entry {
    std::string name;
    std::unique_ptr<T> value;
  };

  mutable Mutex mu_;
  std::vector<Entry<Counter>> counters_ GUARDED_BY(mu_);
  std::vector<Entry<Gauge>> gauges_ GUARDED_BY(mu_);
  std::vector<Entry<Histogram>> histograms_ GUARDED_BY(mu_);
};

}  // namespace semperm::obs

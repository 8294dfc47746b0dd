#include "bench/bench_util.hpp"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#if SEMPERM_TRACE
#include "obs/export.hpp"
#include "obs/session.hpp"
#endif

namespace semperm::bench {

namespace {

// Per-process report state, latched by configure_report(). `mu` guards
// tables/metrics against the harness guard thread flushing a partial
// report while the bench main is still emitting.
struct ReportState {
  std::string json_path;
  std::string filter;
  std::string trace_json_path;
  std::string trace_csv_path;
  bool trace_active = false;
  std::vector<std::pair<std::string, Table>> tables;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> labels;
  /// Every title the bench offered to panel_enabled()/emit(), in query
  /// order — the candidate list shown when a --filter matches nothing.
  std::vector<std::string> offered_titles;
  std::mutex mu;
  std::atomic<bool> finished{false};
  std::int64_t seed_flag = -1;  // <0 = not given
  std::uint64_t resolved_seed = 0;
  bool seed_set = false;
  fault::FaultPlan plan;
  bool plan_set = false;
};

ReportState& report() {
  static ReportState state;
  return state;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

// Caller holds r.mu (or is the sole remaining thread).
std::string report_json(bool partial) {
  const ReportState& r = report();
  std::string out = "{\n  \"partial\": ";
  out += partial ? "true" : "false";
  out += ",\n";
  if (r.seed_set) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "  \"seed\": %llu,\n",
                  static_cast<unsigned long long>(r.resolved_seed));
    out += buf;
  }
  if (r.plan_set) {
    out += "  \"fault\": ";
    append_json_string(out, r.plan.to_string());
    out += ",\n";
  }
  out += "  \"metrics_registry\": ";
  out += obs::MetricsRegistry::global().to_json();
  out += ",\n";
  {
    // The degradation ladders' current levels, verbatim in every report —
    // including the crash-safe partial one, so a hung overload run records
    // what state it died in (gauges default to 0 = L0 full service).
    auto& reg = obs::MetricsRegistry::global();
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "  \"degradation_levels\": {\"heater\": %d, "
                  "\"resilience\": %d},\n",
                  static_cast<int>(reg.gauge("heater.degradation_level")
                                       .value()),
                  static_cast<int>(reg.gauge("resilience.degradation_level")
                                       .value()));
    out += buf;
  }
#if SEMPERM_TRACE
  if (r.trace_active) {
    out += "  \"timeseries\": ";
    out += obs::timeseries_json_fragment();
    out += ",\n  \"trace_sinks\": ";
    out += obs::sink_accounting_json_fragment();
    out += ",\n";
  }
#endif
  if (!r.filter.empty() && r.tables.empty() && !r.offered_titles.empty()) {
    // A filter that selected nothing is indistinguishable from a typo'd
    // panel name without the candidate list; record it in the artifact.
    out += "  \"available_panels\": [";
    for (std::size_t i = 0; i < r.offered_titles.size(); ++i) {
      if (i > 0) out += ", ";
      append_json_string(out, r.offered_titles[i]);
    }
    out += "],\n";
  }
  if (!r.labels.empty()) {
    out += "  \"labels\": {";
    for (std::size_t i = 0; i < r.labels.size(); ++i) {
      out += i == 0 ? "\n    " : ",\n    ";
      append_json_string(out, r.labels[i].first);
      out += ": ";
      append_json_string(out, r.labels[i].second);
    }
    out += "\n  },\n";
  }
  out += "  \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    append_json_string(out, r.metrics[i].first);
    out += ": ";
    out += obs::json_number(r.metrics[i].second);
  }
  out += r.metrics.empty() ? "},\n" : "\n  },\n";
  out += "  \"tables\": [";
  for (std::size_t t = 0; t < r.tables.size(); ++t) {
    const auto& [title, table] = r.tables[t];
    out += t == 0 ? "\n    {\n" : ",\n    {\n";
    out += "      \"title\": ";
    append_json_string(out, title);
    out += ",\n      \"headers\": [";
    const auto& headers = table.headers();
    for (std::size_t i = 0; i < headers.size(); ++i) {
      if (i > 0) out += ", ";
      append_json_string(out, headers[i]);
    }
    out += "],\n      \"rows\": [";
    for (std::size_t i = 0; i < table.rows(); ++i) {
      out += i == 0 ? "\n        [" : ",\n        [";
      const auto& row = table.row_data(i);
      for (std::size_t j = 0; j < row.size(); ++j) {
        if (j > 0) out += ", ";
        append_json_string(out, row[j]);
      }
      out += ']';
    }
    out += table.rows() == 0 ? "]\n    }" : "\n      ]\n    }";
  }
  out += r.tables.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

/// Crash-safe report write: temp file in the same directory, fsync-free
/// (we guard against truncation, not power loss), atomic rename into
/// place. A reader never observes a half-written report.
bool write_report_atomic(const std::string& path, const std::string& json) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// Flush whatever has been emitted so far as a `"partial": true` report.
/// Runs on the guard thread (a normal thread, NOT a signal handler — the
/// guard receives signals synchronously via sigtimedwait, so unrestricted
/// code is safe here).
void flush_partial_report(const char* why) {
  ReportState& r = report();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.json_path.empty()) return;
  if (write_report_atomic(r.json_path, report_json(/*partial=*/true)))
    std::fprintf(stderr, "bench harness: %s — partial report flushed to %s\n",
                 why, r.json_path.c_str());
  else
    std::fprintf(stderr, "bench harness: %s — partial report write FAILED\n",
                 why);
}

/// Watchdog + signal guard: SIGTERM/SIGINT are blocked process-wide (the
/// mask is inherited by every thread spawned later) and received
/// synchronously here, so a kill or a timeout flushes the partial report
/// no matter what the bench main is stuck on. Timeout exits 124 (the
/// timeout(1) convention, asserted by the harness smoke test).
void start_guard_thread(std::int64_t timeout_s) {
  static std::atomic<bool> started{false};
  if (started.exchange(true)) return;
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  std::thread([timeout_s, set] {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(timeout_s > 0 ? timeout_s : 0);
    for (;;) {
      if (report().finished.load(std::memory_order_acquire)) return;
      timespec wait{};
      wait.tv_nsec = 100'000'000;  // poll the deadline at 10 Hz
      const int sig = sigtimedwait(&set, nullptr, &wait);
      if (sig == SIGTERM || sig == SIGINT) {
        flush_partial_report(sig == SIGTERM ? "SIGTERM" : "SIGINT");
        std::_Exit(128 + sig);
      }
      if (timeout_s > 0 && std::chrono::steady_clock::now() >= deadline) {
        flush_partial_report("watchdog timeout");
        std::_Exit(124);
      }
    }
  }).detach();
}

}  // namespace

void add_standard_flags(Cli& cli) {
  cli.add_flag("quick", "Reduced sweep for smoke testing (fewer points/iterations)");
  cli.add_flag("csv", "Emit CSV instead of aligned tables");
  cli.add_string("json", "", "Also write every table and metric to this JSON file");
  cli.add_string("filter", "",
                 "Only compute/emit panels whose title contains this substring");
  cli.add_string("trace", "",
                 "Write a Chrome-trace/Perfetto JSON timeline to this file");
  cli.add_string("trace-csv", "",
                 "Write the counter-track timeseries as CSV to this file");
  cli.add_int("trace-sample", 1,
              "Keep every Nth span/instant trace event (counters always kept)");
  cli.add_int("seed", -1,
              "RNG seed for every stochastic element (default: per-bench)");
  cli.add_string("fault", "",
                 "Fault-injection spec, e.g. drop=0.01,dup=0.005,seed=7 "
                 "(sites: drop dup reorder delay stall; also site@seq and "
                 "site@start+len)");
  cli.add_int("timeout-s", 0,
              "Watchdog: flush a partial report and exit 124 after this "
              "many seconds (0 = no timeout)");
  cli.add_flag("debug-hang",
               "Test hook: hang forever after setup (exercises the "
               "watchdog/partial-report path)");
}

void configure_report(const Cli& cli) {
  ReportState& r = report();
  r.json_path = cli.get_string("json");
  r.filter = cli.get_string("filter");
  r.seed_flag = cli.get_int("seed");
  const std::string fault_spec = cli.get_string("fault");
  if (!fault_spec.empty()) {
    try {
      r.plan = fault::FaultPlan::parse(fault_spec);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
    // The global --seed also seeds the plan unless the spec pinned one.
    if (r.seed_flag >= 0 && fault_spec.find("seed=") == std::string::npos)
      r.plan.seed = static_cast<std::uint64_t>(r.seed_flag);
    r.plan_set = true;
  }
  const std::int64_t timeout_s = cli.get_int("timeout-s");
  if (timeout_s > 0 || !r.json_path.empty())
    start_guard_thread(timeout_s);
  r.trace_json_path = cli.get_string("trace");
  r.trace_csv_path = cli.get_string("trace-csv");
  if (!r.trace_json_path.empty() || !r.trace_csv_path.empty()) {
#if SEMPERM_TRACE
    const std::int64_t sample = cli.get_int("trace-sample");
    obs::TraceConfig cfg;
    cfg.sample_every = sample > 0 ? static_cast<std::uint64_t>(sample) : 1;
    obs::TraceSession::instance().start(cfg);
    r.trace_active = true;
#else
    std::fprintf(stderr,
                 "warning: --trace requested but tracing is compiled out; "
                 "rebuild with -DSEMPERM_TRACE=ON (no timeline will be "
                 "written)\n");
#endif
  }
  if (cli.flag("debug-hang")) {
    std::fprintf(stderr, "bench harness: --debug-hang, sleeping forever\n");
    for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
  }
}

std::uint64_t bench_seed(std::uint64_t bench_default) {
  ReportState& r = report();
  std::lock_guard<std::mutex> lock(r.mu);
  r.resolved_seed = r.seed_flag >= 0 ? static_cast<std::uint64_t>(r.seed_flag)
                                     : bench_default;
  r.seed_set = true;
  return r.resolved_seed;
}

const fault::FaultPlan* fault_plan() {
  ReportState& r = report();
  return r.plan_set ? &r.plan : nullptr;
}

bool panel_enabled(const std::string& title) {
  ReportState& r = report();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    bool seen = false;
    for (const auto& t : r.offered_titles)
      if (t == title) {
        seen = true;
        break;
      }
    if (!seen) r.offered_titles.push_back(title);
  }
  return r.filter.empty() || title.find(r.filter) != std::string::npos;
}

void default_json_path(const std::string& path) {
  if (report().json_path.empty()) report().json_path = path;
}

void report_metric(const std::string& name, double value) {
  ReportState& r = report();
  std::lock_guard<std::mutex> lock(r.mu);
  r.metrics.emplace_back(name, value);
}

void report_label(const std::string& name, const std::string& value) {
  ReportState& r = report();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& l : r.labels)
    if (l.first == name) {
      l.second = value;
      return;
    }
  r.labels.emplace_back(name, value);
}

void report_hw_counters(const std::string& prefix,
                        const obs::PerfCounters::Reading& r) {
  report_label("hw_counters", "available");
  if (r.has_cycles())
    report_metric(prefix + "_hw_cycles", static_cast<double>(r.cycles));
  if (r.has_instructions()) {
    report_metric(prefix + "_hw_instructions",
                  static_cast<double>(r.instructions));
    if (r.has_cycles()) report_metric(prefix + "_hw_ipc", r.ipc());
  }
  if (r.has_llc_loads())
    report_metric(prefix + "_hw_llc_loads", static_cast<double>(r.llc_loads));
  if (r.has_llc_load_misses())
    report_metric(prefix + "_hw_llc_load_misses",
                  static_cast<double>(r.llc_load_misses));
  if (r.has_llc_loads() && r.has_llc_load_misses())
    report_metric(prefix + "_hw_llc_miss_rate", r.llc_miss_rate());
  if (r.has_l1d_misses())
    report_metric(prefix + "_hw_l1d_misses",
                  static_cast<double>(r.l1d_misses));
  if (r.time_enabled_ns > 0 && r.time_running_ns < r.time_enabled_ns)
    report_metric(prefix + "_hw_mux_ratio",
                  static_cast<double>(r.time_running_ns) /
                      static_cast<double>(r.time_enabled_ns));
}

void report_hw_unavailable(const std::string& reason) {
  report_label("hw_counters", "unavailable");
  if (!reason.empty()) report_label("hw_counters_error", reason);
}

namespace {

void print_and_record(const std::string& title, const Table& table,
                      bool csv) {
  std::fputs(banner(title).c_str(), stdout);
  std::fputs((csv ? table.csv() : table.render()).c_str(), stdout);
  ReportState& r = report();
  std::lock_guard<std::mutex> lock(r.mu);
  r.tables.emplace_back(title, table);
}

}  // namespace

void emit(const std::string& title, const Table& table, bool csv) {
  if (panel_enabled(title)) print_and_record(title, table, csv);
}

void emit_rows(const std::string& title, const Table& table, bool csv) {
  if (table.rows() > 0) print_and_record(title, table, csv);
}

int finish_report() {
  ReportState& r = report();
  // Retire the guard: from here the run counts as complete, and a late
  // timeout/signal must not overwrite the final report with a partial.
  r.finished.store(true, std::memory_order_release);
  // Flatten registered histogram tails into the flat "metrics" object so
  // comparison scripts read <name>_p50/_p99/_p999 without walking bucket
  // arrays (perf_compare.py treats *_p999 as informational-only).
  for (const auto& [name, hist] :
       obs::MetricsRegistry::global().histogram_snapshots()) {
    if (hist.total() == 0) continue;
    report_metric(name + "_p50", hist.quantile(0.50));
    report_metric(name + "_p99", hist.quantile(0.99));
    report_metric(name + "_p999", hist.quantile(0.999));
  }
  int rc = 0;
#if SEMPERM_TRACE
  if (r.trace_active) {
    obs::TraceSession::instance().stop();
    if (!r.trace_json_path.empty()) {
      std::ofstream os(r.trace_json_path);
      if (!os) {
        std::fprintf(stderr, "cannot write trace to %s\n",
                     r.trace_json_path.c_str());
        rc = 1;
      } else {
        obs::chrome_trace_json(os);
      }
    }
    if (!r.trace_csv_path.empty()) {
      std::ofstream os(r.trace_csv_path);
      if (!os) {
        std::fprintf(stderr, "cannot write timeseries to %s\n",
                     r.trace_csv_path.c_str());
        rc = 1;
      } else {
        obs::timeseries_csv(os);
      }
    }
  }
#endif
  {
    std::lock_guard<std::mutex> lock(r.mu);
    if (!r.filter.empty() && r.tables.empty() && !r.offered_titles.empty()) {
      std::fprintf(stderr,
                   "bench harness: --filter \"%s\" matched no panel; "
                   "available panels:\n",
                   r.filter.c_str());
      for (const auto& t : r.offered_titles)
        std::fprintf(stderr, "  %s\n", t.c_str());
      rc = 2;
    }
  }
  if (r.json_path.empty()) return rc;
  std::lock_guard<std::mutex> lock(r.mu);
  if (!write_report_atomic(r.json_path, report_json(/*partial=*/false))) {
    std::fprintf(stderr, "cannot write JSON report to %s\n",
                 r.json_path.c_str());
    return 1;
  }
  return rc;
}

}  // namespace semperm::bench

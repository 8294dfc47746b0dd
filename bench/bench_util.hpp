// bench/bench_util.hpp
//
// Shared plumbing for the figure-reproduction binaries: standard sweeps,
// table emission, and the --quick / --csv / --json / --filter /
// --trace / --trace-sample flags every bench accepts. Tables funnel
// through emit(), which applies the panel filter and records everything
// for the end-of-run JSON report; traces funnel through
// configure_report()/finish_report(), which bracket one TraceSession per
// process and write the Chrome-trace JSON + timeseries outputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "fault/fault.hpp"
#include "obs/perf_counters.hpp"

namespace semperm::bench {

/// Message sizes of the OSU-style panels: 1 B .. 1 MiB, powers of two.
inline std::vector<std::size_t> osu_message_sizes(bool quick) {
  std::vector<std::size_t> sizes;
  const std::size_t step = quick ? 4 : 1;
  for (std::size_t p = 0; p <= 20; p += step) sizes.push_back(std::size_t{1} << p);
  return sizes;
}

/// Search-depth axis of panels (b)/(c): 1 .. 8192, powers of two.
inline std::vector<std::size_t> osu_search_depths(bool quick) {
  std::vector<std::size_t> depths;
  const std::size_t step = quick ? 3 : 1;
  for (std::size_t p = 0; p <= 13; p += step) depths.push_back(std::size_t{1} << p);
  return depths;
}

/// Register the standard bench flags.
void add_standard_flags(Cli& cli);

/// Latch the parsed --csv/--json/--filter/--trace* values for this
/// process and, if --trace or --trace-csv was given, start the
/// process-wide trace session, keeping every --trace-sample-th
/// span/instant event (a warning, and no timeline, when tracing is
/// compiled out). Call once, right after cli.parse().
void configure_report(const Cli& cli);

/// The run's RNG seed: the --seed flag when given, else `bench_default`.
/// The resolved value is echoed in the --json report ("seed" field), so
/// a randomized CI run is reproducible from its artifact.
std::uint64_t bench_seed(std::uint64_t bench_default);

/// The parsed --fault plan, or nullptr when no spec was given. Valid for
/// the process lifetime.
const fault::FaultPlan* fault_plan();

/// Under --filter <substr>, is the panel/table `title` selected? Benches
/// check this before computing an expensive panel; emit() re-checks it, so
/// cheap callers may skip the guard. Every queried title is recorded: if
/// the filter ends up matching nothing, finish_report() lists the
/// candidates (stderr + "available_panels" in the JSON) and exits 2, so a
/// typo'd filter is distinguishable from an empty run.
bool panel_enabled(const std::string& title);

/// For benches with a canonical artifact (bench_selfperf writes
/// BENCH_cachesim.json): the path used when --json was not given. Call
/// after configure_report().
void default_json_path(const std::string& path);

/// Record a named scalar for the JSON report's "metrics" object (e.g. a
/// throughput in lines/sec that a comparison script consumes).
void report_metric(const std::string& name, double value);

/// Record a named string for the JSON report's "labels" object — run
/// provenance that is not a measurement (e.g. the compiled-in SIMD
/// backend). Last write to a name wins. Written only when at least one
/// label was recorded.
void report_label(const std::string& name, const std::string& value);

/// Record a hardware-counter reading (obs::PerfCounters) as
/// <prefix>_hw_cycles / _hw_instructions / _hw_ipc / _hw_llc_loads /
/// _hw_llc_load_misses / _hw_llc_miss_rate / _hw_l1d_misses metrics,
/// each emitted only when its counter actually opened, and set the
/// "hw_counters" label to "available". When the kernel multiplexed the
/// group, <prefix>_hw_mux_ratio (< 1) records the running/enabled
/// fraction so scaled values are identifiable in the artifact.
void report_hw_counters(const std::string& prefix,
                        const obs::PerfCounters::Reading& r);

/// Record that hardware counters could not be opened: "hw_counters"
/// label becomes "unavailable" and `reason` lands in
/// "hw_counters_error". The run continues — measurement is optional
/// validation, never a failure (DESIGN.md §16).
void report_hw_unavailable(const std::string& reason);

/// Emit a table in the selected format, preceded by a banner; records the
/// table for the JSON report. Filtered-out titles are dropped silently.
void emit(const std::string& title, const Table& table, bool csv);

/// emit() for a table whose rows the bench selected one by one with
/// panel_enabled() (bench_selfperf's scenarios): emitted whenever it has
/// a row, whatever its own title.
void emit_rows(const std::string& title, const Table& table, bool csv);

/// Stop the trace session (writing the requested trace outputs) and
/// write the --json report, if one was requested. The report is written
/// to a temporary file and renamed into place, so a crash mid-write
/// never leaves a truncated artifact. Returns the process exit code, so
/// mains can end with `return bench::finish_report();` — 0 on success,
/// 1 on a report-write failure, 2 when --filter matched no panel.
int finish_report();

}  // namespace semperm::bench

// semperm/obs/profiler.hpp
//
// Simulated-cycle profiler (DESIGN.md §16): per-site attribution of the
// cycles the coherent access path charges, accumulated in per-thread
// bucket arrays so the ROADMAP item-4 bottleneck claim ("the coherent
// mix is dominated by MESI bookkeeping, not probe arithmetic") is
// reproducible from `bench_selfperf --profile` instead of an external
// profiler.
//
// Each ProfSite is one branch of CoherentHierarchy::access_line (plus
// the heater touch path): the cycles recorded per site are exactly the
// cycles that branch charges, so the per-site sums partition the total
// simulated cost. Sites that charge nothing (directory lookups, MESI
// transitions, writebacks, back-invalidations) record operation counts
// only — they measure protocol *traffic*, not modeled latency.
//
// Like the trace probes, everything here compiles away when
// SEMPERM_TRACE is 0; with it compiled in but not enabled, each probe is
// one relaxed atomic load and a predicted branch. Enabling is
// independent of trace sessions (`--profile` works without `--trace`).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/trace.hpp"

namespace semperm::obs {

/// One attribution bucket in the coherent access path. Keep in sync with
/// the stack/label tables in profiler.cpp.
enum class ProfSite : std::uint8_t {
  kL1Probe,         // L1 hit: l1.hit_latency
  kL2Probe,         // L2 hit: l2.hit_latency
  kLlcProbe,        // shared-LLC hit: l3.hit_latency
  kDirLookup,       // directory probe on a private miss (ops only)
  kUpgradeSnoop,    // S->M upgrade on a private write hit: snoop_latency
  kWriteInvalidate, // write-miss invalidation snoop: snoop_latency
  kCleanDowngrade,  // remote E observes a read, E->S: snoop_latency
  kIntervention,    // remote M writes back + downgrades: intervention_latency
  kRemoteForward,   // clean cache-to-cache forward: intervention_latency
  kDramFill,        // nobody had it: dram_latency
  kBackInvalidate,  // inclusive-LLC victim back-invalidation (ops only)
  kWriteback,       // dirty writeback drained outward (ops only)
  kMesiTransition,  // any MESI transition (ops only)
  kHeaterTouch,     // heater LLC refresh stream (all its branches)
  kCount,
};

inline constexpr std::size_t kProfSiteCount =
    static_cast<std::size_t>(ProfSite::kCount);

/// Human label ("llc_probe") and collapsed-stack frame path
/// ("access_line;llc_probe") of a site. Static strings, always available.
const char* prof_site_label(ProfSite site);
const char* prof_site_stack(ProfSite site);

/// Aggregated bucket values (sum over threads).
struct ProfSnapshot {
  std::uint64_t cycles[kProfSiteCount] = {};
  std::uint64_t ops[kProfSiteCount] = {};

  std::uint64_t total_cycles() const {
    std::uint64_t t = 0;
    for (std::uint64_t c : cycles) t += c;
    return t;
  }
};

#if SEMPERM_TRACE

namespace detail {
/// Flipped by prof_enable(). Inline so every probe site reads the same
/// flag without a cross-TU call.
inline std::atomic<bool> g_prof_enabled{false};
}  // namespace detail

/// Is the profiler recording? The one check every probe performs.
inline bool prof_on() {
  return detail::g_prof_enabled.load(std::memory_order_relaxed);
}

/// Per-thread bucket storage. Registered process-wide on first use and
/// kept alive past thread exit, so aggregation after a join sees every
/// worker's cycles.
struct ProfBuckets {
  std::uint64_t cycles[kProfSiteCount] = {};
  std::uint64_t ops[kProfSiteCount] = {};
};

ProfBuckets& prof_thread_buckets();

void prof_enable(bool on);
/// Zero every registered thread's buckets.
void prof_reset();
/// Sum over every registered thread (live or exited).
ProfSnapshot prof_aggregate();

/// Per-site table sorted by cycles (share of total, ops, cycles/op).
std::string prof_table(const ProfSnapshot& snap);
/// flamegraph.pl collapsed-stack lines: "frame;frame cycles\n" per site.
std::string prof_collapsed(const ProfSnapshot& snap);

/// Record `n` simulated cycles (and one operation) against `site`.
/// `site` is a bare enumerator name (kLlcProbe).
#define SEMPERM_PROF_ADD(site, n)                                    \
  do {                                                               \
    if (::semperm::obs::prof_on()) {                                 \
      auto& semperm_prof_b = ::semperm::obs::prof_thread_buckets();  \
      constexpr auto semperm_prof_s = static_cast<std::size_t>(      \
          ::semperm::obs::ProfSite::site);                           \
      semperm_prof_b.cycles[semperm_prof_s] +=                       \
          static_cast<std::uint64_t>(n);                             \
      ++semperm_prof_b.ops[semperm_prof_s];                          \
    }                                                                \
  } while (0)

/// Record one operation against a site that charges no cycles.
#define SEMPERM_PROF_COUNT(site)                                     \
  do {                                                               \
    if (::semperm::obs::prof_on())                                   \
      ++::semperm::obs::prof_thread_buckets().ops[static_cast<       \
          std::size_t>(::semperm::obs::ProfSite::site)];             \
  } while (0)

#else  // !SEMPERM_TRACE

inline bool prof_on() { return false; }
inline void prof_enable(bool) {}
inline void prof_reset() {}
inline ProfSnapshot prof_aggregate() { return {}; }
inline std::string prof_table(const ProfSnapshot&) { return {}; }
inline std::string prof_collapsed(const ProfSnapshot&) { return {}; }

#define SEMPERM_PROF_ADD(site, n) \
  do {                            \
  } while (0)
#define SEMPERM_PROF_COUNT(site) \
  do {                           \
  } while (0)

#endif  // SEMPERM_TRACE

}  // namespace semperm::obs

// semperm/obs/profiler.hpp
//
// Simulated-cycle profile (DESIGN.md §16.2): per-site attribution of the
// cycles the coherent access path charges, so the ROADMAP item-4
// bottleneck claim ("the coherent mix is dominated by MESI bookkeeping,
// not probe arithmetic") is reproducible from `bench_selfperf --profile`
// instead of an external profiler.
//
// Each ProfSite is one branch of CoherentHierarchy::access_line (plus
// the heater touch path): the cycles recorded per site are exactly the
// cycles that branch charges, so the per-site sums partition the total
// simulated cost. Sites that charge nothing (directory lookups, MESI
// transitions, writebacks, back-invalidations) record operation counts
// only — they measure protocol *traffic*, not modeled latency.
//
// Every CoherentHierarchy keeps its own profile in every build and hands
// it out as a ProfSnapshot (CoherentHierarchy::profile()); nothing here
// is gated by a build plane or a run-time switch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

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

/// Per-site simulated cycles and operation counts.
struct ProfSnapshot {
  std::uint64_t cycles[kProfSiteCount] = {};
  std::uint64_t ops[kProfSiteCount] = {};

  /// Record `n` operations costing `cyc` cycles in total against `site`.
  void add(ProfSite site, std::uint64_t n, std::uint64_t cyc) {
    const auto s = static_cast<std::size_t>(site);
    ops[s] += n;
    cycles[s] += cyc;
  }

  ProfSnapshot& operator+=(const ProfSnapshot& o) {
    for (std::size_t s = 0; s < kProfSiteCount; ++s) {
      cycles[s] += o.cycles[s];
      ops[s] += o.ops[s];
    }
    return *this;
  }

  std::uint64_t total_cycles() const {
    std::uint64_t t = 0;
    for (std::uint64_t c : cycles) t += c;
    return t;
  }
};

/// Per-site table sorted by cycles (share of total, ops, cycles/op).
std::string prof_table(const ProfSnapshot& snap);
/// flamegraph.pl collapsed-stack lines: "frame;frame cycles\n" per site.
std::string prof_collapsed(const ProfSnapshot& snap);

}  // namespace semperm::obs

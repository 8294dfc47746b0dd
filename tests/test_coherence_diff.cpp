// Randomized differential test: CoherentHierarchy, whose one directory
// entry per line is the only coherence record, against
// tests/reference_coherent_hierarchy.hpp, the earlier implementation that
// kept a MESI state map per core beside the directory.
//
// Each config replays one seeded op sequence through both models: reads,
// a 10-30% share of writes, heater touches where an LLC exists, pollutes
// and a rare flush_all. Addresses mix a small hot set every core shares
// (upgrades, interventions, invalidations, E->S downgrades), sequential
// runs over a wider region (prefetchers, private evictions) and a stride
// that lands every line in one set of the outermost cache (LLC evictions
// and their back-invalidations; L2 evictions on KNL). After every op the
// returned cycles, coherence_stats() and every core_stats() must agree,
// and so must state()/privately_resident() of every core for every line
// the op touched: the accessed line and its prefetch window, or — after a
// pollute or flush_all, which touch every line — all lines seen so far.
// The profiles must agree site by site too (the reference counts each site
// where it happens; CoherentHierarchy reads most of them from its other
// counters), and the profile's cycles must add up to the cycles charged
// to all cores.
//
// A failure names the config, the seed and the op index.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "cachesim/arch.hpp"
#include "coherence/coherent_hierarchy.hpp"
#include "common/rng.hpp"
#include "obs/profiler.hpp"
#include "reference_coherent_hierarchy.hpp"

namespace semperm::coherence {
namespace {

using testing::ReferenceCoherentHierarchy;

enum class OpKind { kRead, kWrite, kHeater, kPollute, kFlush };

struct Op {
  OpKind kind;
  unsigned core;
  Addr line;          // accesses and heater touches
  std::size_t bytes;  // pollute
};

struct Config {
  std::string name;
  cachesim::ArchProfile arch;
  unsigned cores;
  std::size_t ops;
};

void PrintTo(const Config& cfg, std::ostream* os) { *os << cfg.name; }

std::vector<Op> make_ops(const Config& cfg, std::uint64_t seed) {
  Rng rng(seed);
  const bool has_llc = cfg.arch.l3.present();
  const double write_frac = 0.10 + 0.20 * rng.uniform();
  // The outermost cache's set count. Every level's set count divides it,
  // so lines `stride` apart share one set at every level, and 2*assoc of
  // them overflow the outermost one.
  const auto& outer = has_llc ? cfg.arch.l3 : cfg.arch.l2;
  const Addr stride = outer.size_bytes / (outer.assoc * kCacheLine);
  const Addr conflict_lines = 2 * outer.assoc + 4;
  constexpr Addr kHotLines = 192;
  const Addr region = 4 * cfg.arch.l2.size_bytes / kCacheLine;
  constexpr Addr kHotBase = 1 << 20;
  constexpr Addr kRegionBase = 1 << 24;
  constexpr Addr kConflictBase = Addr{1} << 32;
  const std::size_t llc_bytes = has_llc ? cfg.arch.l3.size_bytes : 0;
  const std::size_t pollute_bytes[] = {256 << 10, 2 << 20, llc_bytes / 2,
                                       2 * llc_bytes};

  std::vector<Op> ops;
  ops.reserve(cfg.ops);
  Addr cursor = kRegionBase;
  std::size_t run_left = 0;
  for (std::size_t i = 0; i < cfg.ops; ++i) {
    // Half the ops come from the first few cores, so that even with 64
    // cores some private stacks see enough traffic to evict.
    const unsigned busy = cfg.cores < 4 ? cfg.cores : 4;
    Op op{OpKind::kRead,
          static_cast<unsigned>(rng.below(rng.chance(0.5) ? busy : cfg.cores)),
          0, 0};
    const double pick = rng.uniform();
    if (pick < 0.0005) {
      op.kind = OpKind::kFlush;
    } else if (pick < 0.003) {
      op.kind = OpKind::kPollute;
      op.bytes = pollute_bytes[rng.below(has_llc ? 4 : 2)];
    } else {
      const double source = rng.uniform();
      if (source < 0.45) {
        op.line = kHotBase + rng.below(kHotLines);
      } else if (source < 0.85) {
        if (run_left == 0) {
          cursor = kRegionBase + rng.below(region);
          run_left = 1 + rng.below(16);
        }
        op.line = cursor++;
        --run_left;
      } else {
        op.line = kConflictBase + rng.below(conflict_lines) * stride;
      }
      if (has_llc && pick > 0.95)
        op.kind = OpKind::kHeater;
      else if (rng.chance(write_frac))
        op.kind = OpKind::kWrite;
    }
    ops.push_back(op);
  }
  return ops;
}

std::string where(const Config& cfg, std::uint64_t seed, std::size_t i) {
  std::ostringstream os;
  os << cfg.name << " seed " << seed << " op " << i;
  return os.str();
}

/// One op on either model (the two share the driven API).
template <typename Model>
void apply(Model& h, const Op& op, Cycles& cycles, bool& cold) {
  switch (op.kind) {
    case OpKind::kRead: cycles = h.access_line(op.core, op.line); break;
    case OpKind::kWrite: cycles = h.access_line(op.core, op.line, true); break;
    case OpKind::kHeater: {
      const auto t = h.heater_touch_line(op.core, op.line);
      cycles = t.cycles;
      cold = t.cold;
      break;
    }
    case OpKind::kPollute: h.pollute(op.core, op.bytes); break;
    case OpKind::kFlush: h.flush_all(); break;
  }
}

::testing::AssertionResult same_counters(const CoherentHierarchy& h,
                                         const ReferenceCoherentHierarchy& r) {
  const CoherenceStats& a = h.coherence_stats();
  const CoherenceStats& b = r.coherence_stats();
  const std::uint64_t av[] = {a.snoops,          a.invalidations,
                              a.interventions,   a.clean_downgrades,
                              a.upgrades,        a.dirty_writebacks,
                              a.back_invalidations, a.lock_transfers};
  const std::uint64_t bv[] = {b.snoops,          b.invalidations,
                              b.interventions,   b.clean_downgrades,
                              b.upgrades,        b.dirty_writebacks,
                              b.back_invalidations, b.lock_transfers};
  const char* names[] = {"snoops",   "invalidations",    "interventions",
                         "clean_downgrades", "upgrades", "dirty_writebacks",
                         "back_invalidations", "lock_transfers"};
  for (std::size_t k = 0; k < 8; ++k)
    if (av[k] != bv[k])
      return ::testing::AssertionFailure()
             << "coherence " << names[k] << ": " << av[k] << " vs reference "
             << bv[k];
  for (unsigned c = 0; c < h.cores(); ++c) {
    const auto& x = h.core_stats(c);
    const auto& y = r.core_stats(c);
    if (x.accesses != y.accesses || x.lines_touched != y.lines_touched ||
        x.dram_fetches != y.dram_fetches || x.total_cycles != y.total_cycles ||
        x.levels.size() != y.levels.size())
      return ::testing::AssertionFailure()
             << "core " << c << " totals: cycles " << x.total_cycles
             << " vs reference " << y.total_cycles << ", dram "
             << x.dram_fetches << " vs " << y.dram_fetches;
    for (std::size_t l = 0; l < x.levels.size(); ++l) {
      const auto& p = x.levels[l];
      const auto& q = y.levels[l];
      if (p.demand_hits != q.demand_hits ||
          p.demand_misses != q.demand_misses ||
          p.prefetch_fills != q.prefetch_fills ||
          p.prefetch_hits != q.prefetch_hits || p.writebacks != q.writebacks)
        return ::testing::AssertionFailure()
               << "core " << c << " level " << p.name << " counters differ";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_profile(const CoherentHierarchy& h,
                                        const ReferenceCoherentHierarchy& r) {
  const obs::ProfSnapshot mine = h.profile();
  const obs::ProfSnapshot& ref = r.profile();
  for (std::size_t s = 0; s < obs::kProfSiteCount; ++s)
    if (mine.ops[s] != ref.ops[s] || mine.cycles[s] != ref.cycles[s])
      return ::testing::AssertionFailure()
             << "profile site "
             << obs::prof_site_label(static_cast<obs::ProfSite>(s)) << ": ops "
             << mine.ops[s] << " cycles " << mine.cycles[s]
             << " vs reference ops " << ref.ops[s] << " cycles "
             << ref.cycles[s];
  Cycles charged = 0;
  for (unsigned c = 0; c < h.cores(); ++c)
    charged += h.core_stats(c).total_cycles;
  if (mine.total_cycles() != charged)
    return ::testing::AssertionFailure()
           << "profile attributes " << mine.total_cycles()
           << " cycles, the cores were charged " << charged;
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult same_lines(const CoherentHierarchy& h,
                                      const ReferenceCoherentHierarchy& r,
                                      const std::vector<Addr>& lines) {
  for (Addr line : lines)
    for (unsigned c = 0; c < h.cores(); ++c) {
      if (h.state(c, line) != r.state(c, line))
        return ::testing::AssertionFailure()
               << "core " << c << " line " << line << ": state "
               << to_string(h.state(c, line)) << " vs reference "
               << to_string(r.state(c, line));
      if (h.privately_resident(c, line) != r.privately_resident(c, line))
        return ::testing::AssertionFailure()
               << "core " << c << " line " << line << ": residency differs";
    }
  return ::testing::AssertionSuccess();
}

void run_config(const Config& cfg, std::uint64_t seed) {
  const std::vector<Op> ops = make_ops(cfg, seed);
  CoherentHierarchy h(cfg.arch, cfg.cores);
  ReferenceCoherentHierarchy r(cfg.arch, cfg.cores);

  // Lines seen so far (each access's prefetch window included), for the
  // whole-state comparison after pollute and flush_all.
  std::vector<Addr> seen;
  std::unordered_set<Addr> seen_set;
  std::vector<Addr> window;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    Cycles hc = 0, rc = 0;
    bool hcold = false, rcold = false;
    try {
      apply(h, op, hc, hcold);  // audited builds may throw AuditError
    } catch (const std::exception& e) {
      FAIL() << where(cfg, seed, i) << ": " << e.what();
    }
    apply(r, op, rc, rcold);
    ASSERT_EQ(hc, rc) << where(cfg, seed, i) << ": cycles";
    ASSERT_EQ(hcold, rcold) << where(cfg, seed, i) << ": heater cold";
    ASSERT_TRUE(same_counters(h, r)) << where(cfg, seed, i);
    ASSERT_TRUE(same_profile(h, r)) << where(cfg, seed, i);
    if (op.kind == OpKind::kPollute || op.kind == OpKind::kFlush) {
      ASSERT_TRUE(same_lines(h, r, seen)) << where(cfg, seed, i);
      continue;
    }
    window.clear();
    for (Addr l = op.line - 1; l <= op.line + 4; ++l) {
      window.push_back(l);
      if (seen_set.insert(l).second) seen.push_back(l);
    }
    ASSERT_TRUE(same_lines(h, r, window)) << where(cfg, seed, i);
  }
  ASSERT_TRUE(same_lines(h, r, seen)) << where(cfg, seed, ops.size());

  // The ops must have reached the protocol's interesting corners, or the
  // agreement above proves little.
  const CoherenceStats& st = h.coherence_stats();
  if (cfg.cores > 1) {
    EXPECT_GT(st.invalidations, 0u) << cfg.name;
    EXPECT_GT(st.interventions, 0u) << cfg.name;
    EXPECT_GT(st.clean_downgrades, 0u) << cfg.name;
    EXPECT_GT(st.upgrades, 0u) << cfg.name;
  }
  if (cfg.arch.l3.present()) {
    EXPECT_GT(st.back_invalidations, 0u) << cfg.name;
  }
  std::uint64_t l2_evictions = 0;
  for (unsigned c = 0; c < h.cores(); ++c)
    l2_evictions += h.l2(c).stats().evictions;
  EXPECT_GT(l2_evictions, 0u) << cfg.name;
  const auto transitions =
      static_cast<std::size_t>(obs::ProfSite::kMesiTransition);
  EXPECT_GT(h.profile().ops[transitions], 0u) << cfg.name;
}

class CoherenceDiffTest : public ::testing::TestWithParam<Config> {};

TEST_P(CoherenceDiffTest, MatchesPerCoreStateMapReference) {
  for (std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE(GetParam().name);
    run_config(GetParam(), 0xd1ffULL * 1000 + seed);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Archs, CoherenceDiffTest,
    ::testing::Values(Config{"snb1", cachesim::sandy_bridge(), 1, 4000},
                      Config{"snb2", cachesim::sandy_bridge(), 2, 4000},
                      Config{"snb4", cachesim::sandy_bridge(), 4, 4000},
                      Config{"snb8", cachesim::sandy_bridge(), 8, 4000},
                      Config{"bdw4", cachesim::broadwell(), 4, 4000},
                      Config{"knl2", cachesim::knl(), 2, 4000},
                      Config{"knl8", cachesim::knl(), 8, 4000},
                      Config{"knl64", cachesim::knl(), 64, 2500}),
    [](const ::testing::TestParamInfo<Config>& p) { return p.param.name; });

}  // namespace
}  // namespace semperm::coherence

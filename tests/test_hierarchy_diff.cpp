// Randomized differential test: Hierarchy, whose missed probes hand their
// sets to the demand fills and whose prefetch units fill as they emit,
// against tests/reference_hierarchy.hpp, the earlier implementation on
// the list-based reference cache (probe, then fill with a second walk;
// collect the prefetch requests, then fill them).
//
// Each profile replays seeded op sequences through both models: single-
// and multi-line reads and writes, some inside a marked network region,
// simulate() over short runs, heater touches, pollutes and a rare
// flush_all. Addresses mix a small hot set (L1 hits and stale duplicates
// after a flush), sequential runs over a region four times the L2
// (prefetch streams, private evictions), and a stride that maps every
// line into one set of the outermost cache (its evictions and dirty
// writebacks). The profiles are the four architectures, Sandy Bridge with
// a dedicated network cache, and Broadwell with a partitioned LLC. After
// every op the returned value, HierarchyStats with every LevelSummary,
// every level's CacheStats, and the residency and dirtiness of each line
// the op touched (and of its prefetch window) must agree; after a pollute
// or flush_all, which touch every line, all lines seen so far are
// compared.
//
// A failure names the profile, the seed and the op index.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cachesim/arch.hpp"
#include "cachesim/hierarchy.hpp"
#include "common/rng.hpp"
#include "reference_hierarchy.hpp"

namespace semperm::cachesim {
namespace {

using testing::ReferenceHierarchy;
using testing::ReferenceSetAssocCache;

enum class OpKind { kRead, kWrite, kSimulate, kHeater, kPollute, kFlush };

struct Op {
  OpKind kind;
  Addr addr;          // byte address of accesses and heater touches
  std::size_t bytes;  // access / heater / pollute size
  std::vector<Addr> lines;  // simulate()
  bool write = false;       // simulate()
};

struct Profile {
  std::string name;
  ArchProfile arch;
};

constexpr Addr kHotBase = Addr{1} << 20;
constexpr Addr kRegionBase = Addr{1} << 24;
constexpr Addr kNetBase = Addr{1} << 28;
constexpr Addr kNetLines = 512;
constexpr Addr kConflictBase = Addr{1} << 32;

std::vector<Profile> profiles() {
  std::vector<Profile> out = {{"sandybridge", sandy_bridge()},
                              {"broadwell", broadwell()},
                              {"nehalem", nehalem()},
                              {"knl", knl()}};
  ArchProfile net = sandy_bridge();
  net.network_cache = LevelConfig{16 * 1024, 8, net.l1.hit_latency};
  out.push_back({"sandybridge+netcache", net});
  ArchProfile part = broadwell();
  part.llc_reserved_ways = 4;
  out.push_back({"broadwell+partition", part});
  return out;
}

std::vector<Op> make_ops(const ArchProfile& arch, std::uint64_t seed,
                         std::size_t count) {
  Rng rng(seed);
  const bool has_l3 = arch.l3.present();
  const LevelConfig& outer = has_l3 ? arch.l3 : arch.l2;
  // Lines `stride` apart share one set at every level (each level's set
  // count divides the outermost one's), and 2*assoc+4 of them overflow it.
  const Addr stride = outer.size_bytes / (outer.assoc * kCacheLine);
  const Addr conflict_lines = 2 * outer.assoc + 4;
  constexpr Addr kHotLines = 192;
  const Addr region = 4 * arch.l2.size_bytes / kCacheLine;
  const std::size_t llc_bytes = outer.size_bytes;
  const std::size_t pollute_bytes[] = {256 << 10, 2 << 20, llc_bytes / 2,
                                       2 * llc_bytes};
  const double write_frac = 0.10 + 0.20 * rng.uniform();

  Addr cursor = kRegionBase;
  std::size_t run_left = 0;
  // The next line: hot, a sequential run, the network region, or the
  // conflict stride.
  const auto draw_line = [&] {
    const double source = rng.uniform();
    if (source < 0.35) return kHotBase + rng.below(kHotLines);
    if (source < 0.75) {
      if (run_left == 0) {
        cursor = kRegionBase + rng.below(region);
        run_left = 1 + rng.below(16);
      }
      --run_left;
      return cursor++;
    }
    if (source < 0.90) return kNetBase + rng.below(kNetLines);
    return kConflictBase + rng.below(conflict_lines) * stride;
  };

  std::vector<Op> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Op op{OpKind::kRead, 0, 0, {}, false};
    const double pick = rng.uniform();
    if (pick < 0.001) {
      op.kind = OpKind::kFlush;
    } else if (pick < 0.006) {
      op.kind = OpKind::kPollute;
      op.bytes = pollute_bytes[rng.below(4)];
    } else if (pick < 0.06) {
      op.kind = OpKind::kSimulate;
      op.write = rng.chance(write_frac);
      const std::size_t n = 1 + rng.below(24);
      for (std::size_t k = 0; k < n; ++k) op.lines.push_back(draw_line());
    } else {
      const Addr line = draw_line();
      op.addr = line * kCacheLine + rng.below(kCacheLine);
      // Mostly word-sized, sometimes spanning up to five lines.
      op.bytes = rng.chance(0.8) ? 1 + rng.below(16) : 1 + rng.below(256);
      if (pick > 0.95)
        op.kind = OpKind::kHeater;
      else if (rng.chance(write_frac))
        op.kind = OpKind::kWrite;
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::string where(const Profile& p, std::uint64_t seed, std::size_t i) {
  std::ostringstream os;
  os << p.name << " seed " << seed << " op " << i;
  return os.str();
}

/// One op on either model; returns the cycles charged, or for a heater
/// touch the number of cold lines.
template <typename Model>
std::uint64_t apply(Model& h, const Op& op) {
  switch (op.kind) {
    case OpKind::kRead: return h.access(op.addr, op.bytes);
    case OpKind::kWrite: return h.access(op.addr, op.bytes, true);
    case OpKind::kSimulate:
      return h.simulate(std::span<const Addr>(op.lines), op.write);
    case OpKind::kHeater: return h.heater_touch(op.addr, op.bytes);
    case OpKind::kPollute: h.pollute(op.bytes); return 0;
    case OpKind::kFlush: h.flush_all(); return 0;
  }
  return 0;
}

/// Lines whose state the op can change directly: each accessed line and
/// the lines its prefetch units may request.
void touched_lines(const Op& op, unsigned degree, std::vector<Addr>& out) {
  out.clear();
  const auto add = [&](Addr line) {
    out.push_back(line);
    out.push_back(line ^ 1);
    for (Addr k = 1; k <= degree + 1; ++k) out.push_back(line + k);
  };
  if (op.kind == OpKind::kSimulate) {
    for (const Addr line : op.lines) add(line);
  } else if (op.bytes > 0 && op.kind != OpKind::kPollute) {
    for (Addr line = line_of(op.addr); line <= line_of(op.addr + op.bytes - 1);
         ++line)
      add(line);
  }
}

void expect_cache_stats_eq(const CacheStats& a, const CacheStats& b,
                           const std::string& at) {
  EXPECT_EQ(a.demand_hits, b.demand_hits) << at;
  EXPECT_EQ(a.demand_misses, b.demand_misses) << at;
  EXPECT_EQ(a.prefetch_fills, b.prefetch_fills) << at;
  EXPECT_EQ(a.prefetch_hits, b.prefetch_hits) << at;
  EXPECT_EQ(a.heater_fills, b.heater_fills) << at;
  EXPECT_EQ(a.heater_hits, b.heater_hits) << at;
  EXPECT_EQ(a.evictions, b.evictions) << at;
  EXPECT_EQ(a.writebacks, b.writebacks) << at;
}

void expect_line_eq(const SetAssocCache& a, const ReferenceSetAssocCache& b,
                    Addr line, const std::string& at) {
  EXPECT_EQ(a.contains(line), b.contains(line))
      << at << ": " << a.name() << " residency of line " << line;
  EXPECT_EQ(a.line_dirty(line), b.line_dirty(line))
      << at << ": " << a.name() << " dirtiness of line " << line;
}

void expect_same(const Hierarchy& h, const ReferenceHierarchy& r,
                 std::span<const Addr> lines, const std::string& at) {
  const HierarchyStats& hs = h.stats();
  const HierarchyStats& rs = r.stats();
  EXPECT_EQ(hs.accesses, rs.accesses) << at;
  EXPECT_EQ(hs.lines_touched, rs.lines_touched) << at;
  EXPECT_EQ(hs.dram_fetches, rs.dram_fetches) << at;
  EXPECT_EQ(hs.total_cycles, rs.total_cycles) << at;
  ASSERT_EQ(hs.levels.size(), rs.levels.size()) << at;
  for (std::size_t i = 0; i < hs.levels.size(); ++i) {
    const LevelSummary& a = hs.levels[i];
    const LevelSummary& b = rs.levels[i];
    EXPECT_EQ(a.name, b.name) << at;
    EXPECT_EQ(a.demand_hits, b.demand_hits) << at << " " << a.name;
    EXPECT_EQ(a.demand_misses, b.demand_misses) << at << " " << a.name;
    EXPECT_EQ(a.prefetch_fills, b.prefetch_fills) << at << " " << a.name;
    EXPECT_EQ(a.prefetch_hits, b.prefetch_hits) << at << " " << a.name;
    EXPECT_EQ(a.writebacks, b.writebacks) << at << " " << a.name;
  }
  ASSERT_EQ(h.level_count(), r.level_count()) << at;
  for (unsigned lvl = 0; lvl < h.level_count(); ++lvl) {
    expect_cache_stats_eq(h.level(lvl).stats(), r.level(lvl).stats(),
                          at + " " + h.level(lvl).name());
    for (const Addr line : lines)
      expect_line_eq(h.level(lvl), r.level(lvl), line, at);
  }
  ASSERT_EQ(h.network_cache() != nullptr, r.network_cache() != nullptr) << at;
  if (h.network_cache() != nullptr) {
    expect_cache_stats_eq(h.network_cache()->stats(),
                          r.network_cache()->stats(), at + " NetC");
    for (const Addr line : lines)
      expect_line_eq(*h.network_cache(), *r.network_cache(), line, at);
  }
}

void run_profile(const Profile& p, std::uint64_t seed, std::size_t count) {
  Hierarchy h(p.arch);
  ReferenceHierarchy r(p.arch);
  h.mark_network_region(kNetBase * kCacheLine, kNetLines * kCacheLine);
  r.mark_network_region(kNetBase * kCacheLine, kNetLines * kCacheLine);
  const std::vector<Op> ops = make_ops(p.arch, seed, count);
  std::unordered_set<Addr> seen;
  std::vector<Addr> lines;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const std::string at = where(p, seed, i);
    EXPECT_EQ(apply(h, op), apply(r, op)) << at;
    touched_lines(op, p.arch.prefetch.stream_degree, lines);
    seen.insert(lines.begin(), lines.end());
    if (op.kind == OpKind::kPollute || op.kind == OpKind::kFlush)
      lines.assign(seen.begin(), seen.end());
    expect_same(h, r, lines, at);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(HierarchyDiff, MatchesReferenceOnEveryProfile) {
  for (const Profile& p : profiles())
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      run_profile(p, seed * 0x2545F4914F6CDD1DULL, 2500);
      if (::testing::Test::HasFailure()) return;
    }
}

}  // namespace
}  // namespace semperm::cachesim

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
// a dedicated network cache, Broadwell with a partitioned LLC, and KNL
// without prefetchers, whose pollute leaves L1 holes over an L2 that kept
// its lines, so a demand fill there evicts nothing and counts no
// prefetch. After
// every op the returned value, HierarchyStats with every LevelSummary,
// every level's CacheStats, and the residency and dirtiness of each line
// the op touched (and of its prefetch window) must agree; after a pollute
// or flush_all, which touch every line, all lines seen so far are
// compared.
//
// Batches (Hierarchy::access over a span, DESIGN.md §10.3) come from a
// small pool per run: hot-set reads that fit the L1, one batch with a
// write, one whose accesses cross lines, and one over the network region.
// A batch op runs its batch 1–5 times back to back, and the reference
// runs each element through access(). Right after a batch op the
// sequence often runs a whole-cache op: a heater touch, a pollute, a
// flush_all, reset_stats (which the reference, having none, models by
// subtracting its counters at the reset) or a new network region over
// hot lines. When the batch op ended in a replay, the test then runs
// that batch once more and requires that it is not replayed: each of
// those ops must have dropped the record.
//
// A failure names the profile, the seed and the op index.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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

enum class OpKind {
  kRead,
  kWrite,
  kSimulate,
  kHeater,
  kPollute,
  kFlush,
  kResetStats,
  kMarkNetwork,
  kBatch,
};

// The ops that drop a recorded batch, in the order of the counts below.
constexpr std::array<OpKind, 5> kWholeCacheOps = {
    OpKind::kHeater, OpKind::kPollute, OpKind::kFlush, OpKind::kResetStats,
    OpKind::kMarkNetwork};

struct Op {
  OpKind kind;
  Addr addr;          // byte address of accesses, heater touches, regions
  std::size_t bytes;  // access / heater / pollute / region size
  std::vector<Addr> lines;  // simulate()
  bool write = false;       // simulate()
  std::size_t batch = 0;    // kBatch: index into the run's pool
  unsigned repeats = 0;     // kBatch: runs back to back
};

/// A run's ops and the batches its kBatch ops draw from.
struct Script {
  std::vector<std::vector<DemandAccess>> batches;
  std::vector<Op> ops;
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
  ArchProfile quiet = knl();
  quiet.prefetch = PrefetchConfig{false, false, false, 2, 4};
  out.push_back({"knl-noprefetch", quiet});
  return out;
}

/// The run's batch pool: hot-set reads that fit the L1 (in ascending
/// order, which the streamer follows, and shuffled), one batch with a
/// write, one whose accesses cross lines, and one over the network region.
std::vector<std::vector<DemandAccess>> make_batches(Rng& rng,
                                                    Addr hot_lines) {
  std::vector<std::vector<DemandAccess>> out;
  const auto read = [&](Addr line, std::size_t max_bytes) {
    const Addr offset = rng.below(kCacheLine);
    return DemandAccess{line * kCacheLine + offset,
                        1 + rng.below(max_bytes), false};
  };
  for (int b = 0; b < 4; ++b) {
    std::vector<DemandAccess> batch;
    const std::size_t n = 4 + rng.below(44);
    Addr line = kHotBase + rng.below(hot_lines / 2);
    for (std::size_t k = 0; k < n; ++k) {
      // Ascending with small steps, or anywhere in the hot set.
      line = b % 2 == 0 ? kHotBase + (line - kHotBase + 1 + rng.below(3)) %
                                         hot_lines
                        : kHotBase + rng.below(hot_lines);
      batch.push_back(read(line, 16));
    }
    out.push_back(std::move(batch));
  }
  std::vector<DemandAccess> with_write = out[1];
  with_write[rng.below(with_write.size())].write = true;
  out.push_back(std::move(with_write));
  std::vector<DemandAccess> crossing;
  for (int k = 0; k < 12; ++k)
    crossing.push_back(
        DemandAccess{(kHotBase + rng.below(hot_lines)) * kCacheLine +
                         rng.below(kCacheLine),
                     65 + rng.below(192), false});
  out.push_back(std::move(crossing));
  std::vector<DemandAccess> network;
  const Addr net_first = kNetBase + rng.below(kNetLines - 32);
  for (Addr k = 0; k < 24; ++k) network.push_back(read(net_first + k, 16));
  out.push_back(std::move(network));
  return out;
}

Script make_script(const ArchProfile& arch, std::uint64_t seed,
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

  Script script;
  script.batches = make_batches(rng, kHotLines);
  std::vector<Op>& ops = script.ops;
  ops.reserve(count);
  const auto whole_cache_op = [&](OpKind kind) {
    Op op{kind, 0, 0, {}, false};
    if (kind == OpKind::kHeater) {
      op.addr = (kHotBase + rng.below(kHotLines)) * kCacheLine;
      op.bytes = kCacheLine * (1 + rng.below(64));
    } else if (kind == OpKind::kPollute) {
      op.bytes = pollute_bytes[rng.below(4)];
    } else if (kind == OpKind::kMarkNetwork) {
      // A few hot lines become network lines from here on.
      op.addr = (kHotBase + rng.below(kHotLines)) * kCacheLine;
      op.bytes = kCacheLine * (1 + rng.below(4));
    }
    return op;
  };
  for (std::size_t i = 0; i < count; ++i) {
    Op op{OpKind::kRead, 0, 0, {}, false};
    const double pick = rng.uniform();
    if (pick < 0.001) {
      op.kind = OpKind::kFlush;
    } else if (pick < 0.003) {
      op.kind = OpKind::kResetStats;
    } else if (pick < 0.008) {
      op.kind = OpKind::kPollute;
      op.bytes = pollute_bytes[rng.below(4)];
    } else if (pick < 0.06) {
      op.kind = OpKind::kSimulate;
      op.write = rng.chance(write_frac);
      const std::size_t n = 1 + rng.below(24);
      for (std::size_t k = 0; k < n; ++k) op.lines.push_back(draw_line());
    } else if (pick < 0.14) {
      op.kind = OpKind::kBatch;
      op.batch = rng.below(script.batches.size());
      op.repeats = 1 + static_cast<unsigned>(rng.below(5));
      ops.push_back(std::move(op));
      if (rng.chance(0.25))
        ops.push_back(
            whole_cache_op(kWholeCacheOps[rng.below(kWholeCacheOps.size())]));
      continue;
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
  return script;
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
    case OpKind::kMarkNetwork:
      h.mark_network_region(op.addr, op.bytes);
      return 0;
    case OpKind::kResetStats:  // the runner's: the reference has none
    case OpKind::kBatch: break;
  }
  return 0;
}

/// Append an accessed line and the lines its prefetch units may request.
void add_window(Addr line, unsigned degree, std::vector<Addr>& out) {
  out.push_back(line);
  out.push_back(line ^ 1);
  for (Addr k = 1; k <= degree + 1; ++k) out.push_back(line + k);
}

void add_range(Addr addr, std::size_t bytes, unsigned degree,
               std::vector<Addr>& out) {
  for (Addr line = line_of(addr); line <= line_of(addr + bytes - 1); ++line)
    add_window(line, degree, out);
}

/// Lines whose state the op can change directly: each accessed line and
/// the lines its prefetch units may request.
void touched_lines(const Op& op, unsigned degree, std::vector<Addr>& out) {
  out.clear();
  if (op.kind == OpKind::kSimulate) {
    for (const Addr line : op.lines) add_window(line, degree, out);
  } else if (op.bytes > 0 && op.kind != OpKind::kPollute) {
    add_range(op.addr, op.bytes, degree, out);
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

/// The reference's counters at the hierarchy's last reset_stats(): the
/// reference has none, so the hierarchy's counters must equal the
/// reference's minus these.
struct Baseline {
  std::uint64_t accesses = 0;
  std::uint64_t lines_touched = 0;
  std::uint64_t dram_fetches = 0;
  Cycles total_cycles = 0;
  std::vector<CacheStats> caches;  // every level, then the network cache
};

Baseline counters_of(const ReferenceHierarchy& r) {
  const HierarchyStats& rs = r.stats();
  Baseline b{rs.accesses, rs.lines_touched, rs.dram_fetches, rs.total_cycles,
             {}};
  for (unsigned lvl = 0; lvl < r.level_count(); ++lvl)
    b.caches.push_back(r.level(lvl).stats());
  if (r.network_cache() != nullptr)
    b.caches.push_back(r.network_cache()->stats());
  return b;
}

CacheStats minus(const CacheStats& a, const CacheStats& b) {
  return CacheStats{a.demand_hits - b.demand_hits,
                    a.demand_misses - b.demand_misses,
                    a.prefetch_fills - b.prefetch_fills,
                    a.prefetch_hits - b.prefetch_hits,
                    a.heater_fills - b.heater_fills,
                    a.heater_hits - b.heater_hits,
                    a.evictions - b.evictions,
                    a.writebacks - b.writebacks};
}

void expect_same(const Hierarchy& h, const ReferenceHierarchy& r,
                 const Baseline& base, std::span<const Addr> lines,
                 const std::string& at) {
  const HierarchyStats& hs = h.stats();
  const HierarchyStats& rs = r.stats();
  EXPECT_EQ(hs.accesses, rs.accesses - base.accesses) << at;
  EXPECT_EQ(hs.lines_touched, rs.lines_touched - base.lines_touched) << at;
  EXPECT_EQ(hs.dram_fetches, rs.dram_fetches - base.dram_fetches) << at;
  EXPECT_EQ(hs.total_cycles, rs.total_cycles - base.total_cycles) << at;
  ASSERT_EQ(hs.levels.size(), rs.levels.size()) << at;
  ASSERT_EQ(hs.levels.size(), base.caches.size()) << at;
  for (std::size_t i = 0; i < hs.levels.size(); ++i) {
    const LevelSummary& a = hs.levels[i];
    const LevelSummary& b = rs.levels[i];
    const CacheStats& z = base.caches[i];
    EXPECT_EQ(a.name, b.name) << at;
    EXPECT_EQ(a.demand_hits, b.demand_hits - z.demand_hits)
        << at << " " << a.name;
    EXPECT_EQ(a.demand_misses, b.demand_misses - z.demand_misses)
        << at << " " << a.name;
    EXPECT_EQ(a.prefetch_fills, b.prefetch_fills - z.prefetch_fills)
        << at << " " << a.name;
    EXPECT_EQ(a.prefetch_hits, b.prefetch_hits - z.prefetch_hits)
        << at << " " << a.name;
    EXPECT_EQ(a.writebacks, b.writebacks - z.writebacks) << at << " " << a.name;
  }
  ASSERT_EQ(h.level_count(), r.level_count()) << at;
  for (unsigned lvl = 0; lvl < h.level_count(); ++lvl) {
    expect_cache_stats_eq(h.level(lvl).stats(),
                          minus(r.level(lvl).stats(), base.caches[lvl]),
                          at + " " + h.level(lvl).name());
    for (const Addr line : lines)
      expect_line_eq(h.level(lvl), r.level(lvl), line, at);
  }
  ASSERT_EQ(h.network_cache() != nullptr, r.network_cache() != nullptr) << at;
  if (h.network_cache() != nullptr) {
    expect_cache_stats_eq(h.network_cache()->stats(),
                          minus(r.network_cache()->stats(), base.caches.back()),
                          at + " NetC");
    for (const Addr line : lines)
      expect_line_eq(*h.network_cache(), *r.network_cache(), line, at);
  }
}

/// What one profile's runs exercised of the replay.
struct Coverage {
  std::uint64_t replayed = 0;
  // Per kWholeCacheOps entry: batches that replayed right before the op
  // and were simulated again right after it.
  std::array<std::uint64_t, kWholeCacheOps.size()> dropped{};
};

void run_profile(const Profile& p, std::uint64_t seed, std::size_t count,
                 Coverage& cov) {
  Hierarchy h(p.arch);
  ReferenceHierarchy r(p.arch);
  h.mark_network_region(kNetBase * kCacheLine, kNetLines * kCacheLine);
  r.mark_network_region(kNetBase * kCacheLine, kNetLines * kCacheLine);
  const Script script = make_script(p.arch, seed, count);
  const unsigned degree = p.arch.prefetch.stream_degree;
  Baseline base = counters_of(r);
  std::unordered_set<Addr> seen;
  std::vector<Addr> lines;

  // One run of a batch on both models; returns whether it was replayed.
  const auto run_batch = [&](const std::vector<DemandAccess>& batch,
                             const std::string& at) {
    const std::uint64_t replayed = h.replayed_batches();
    Cycles want = 0;
    for (const DemandAccess& a : batch)
      want += r.access(a.addr, a.bytes, a.write);
    EXPECT_EQ(h.access(std::span<const DemandAccess>(batch)), want) << at;
    lines.clear();
    for (const DemandAccess& a : batch)
      add_range(a.addr, a.bytes, degree, lines);
    seen.insert(lines.begin(), lines.end());
    expect_same(h, r, base, lines, at);
    return h.replayed_batches() > replayed;
  };

  // The batch whose last run was a replay, if the op just run was its op.
  const std::vector<DemandAccess>* replayed_last = nullptr;
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    const Op& op = script.ops[i];
    const std::string at = where(p, seed, i);
    const std::vector<DemandAccess>* armed =
        std::exchange(replayed_last, nullptr);
    if (op.kind == OpKind::kBatch) {
      const std::vector<DemandAccess>& batch = script.batches[op.batch];
      bool replayed = false;
      for (unsigned k = 0; k < op.repeats; ++k) {
        replayed = run_batch(batch, at);
        if (::testing::Test::HasFailure()) return;
      }
      if (replayed) replayed_last = &batch;
      continue;
    }
    if (op.kind == OpKind::kResetStats) {
      h.reset_stats();
      base = counters_of(r);
    } else {
      EXPECT_EQ(apply(h, op), apply(r, op)) << at;
    }
    touched_lines(op, degree, lines);
    seen.insert(lines.begin(), lines.end());
    if (op.kind == OpKind::kPollute || op.kind == OpKind::kFlush)
      lines.assign(seen.begin(), seen.end());
    expect_same(h, r, base, lines, at);
    const auto kind = std::find(kWholeCacheOps.begin(), kWholeCacheOps.end(),
                                op.kind);
    if (armed != nullptr && kind != kWholeCacheOps.end()) {
      EXPECT_FALSE(run_batch(*armed, at + " (rerun)"))
          << at << ": a batch replayed across this op";
      ++cov.dropped[kind - kWholeCacheOps.begin()];
    }
    if (::testing::Test::HasFailure()) return;
  }
  cov.replayed += h.replayed_batches();
}

TEST(HierarchyDiff, MatchesReferenceOnEveryProfile) {
  for (const Profile& p : profiles()) {
    Coverage cov;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      run_profile(p, seed * 0x2545F4914F6CDD1DULL, 2500, cov);
      if (::testing::Test::HasFailure()) return;
    }
    // The batches were exercised: many replays (about 780 per profile
    // today), and each op that must drop a recorded batch was seen
    // dropping one (4 to 32 times).
    EXPECT_GE(cov.replayed, 400u) << p.name;
    for (std::size_t k = 0; k < kWholeCacheOps.size(); ++k)
      EXPECT_GE(cov.dropped[k], 1u) << p.name << " whole-cache op " << k;
  }
}

}  // namespace
}  // namespace semperm::cachesim

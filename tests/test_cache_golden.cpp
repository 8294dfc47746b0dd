// Golden-equivalence property test for the flat SoA cache rewrite
// (DESIGN.md §10): replay randomized operation traces through the new
// SetAssocCache and through the retained pre-rewrite implementation
// (tests/reference_cache.hpp) and require *bit-identical* behaviour —
// every return value, every statistics counter, every eviction decision,
// and the final resident set with its dirty bits. The SoA layout, the lazy
// stale-epoch filtering, the fastmod set indexing, the running dirty-way
// count behind flush(), the grown-set walk of pollute() and the recycled
// storage blocks are all supposed to be pure representation changes; this
// test is what pins that down.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cachesim/cache.hpp"
#include "common/rng.hpp"
#include "reference_cache.hpp"

namespace semperm::cachesim {
namespace {

using testing::ReferenceSetAssocCache;

void expect_stats_eq(const CacheStats& a, const CacheStats& b,
                     std::uint64_t seed, std::size_t op) {
  EXPECT_EQ(a.demand_hits, b.demand_hits) << "seed " << seed << " op " << op;
  EXPECT_EQ(a.demand_misses, b.demand_misses)
      << "seed " << seed << " op " << op;
  EXPECT_EQ(a.prefetch_fills, b.prefetch_fills)
      << "seed " << seed << " op " << op;
  EXPECT_EQ(a.prefetch_hits, b.prefetch_hits)
      << "seed " << seed << " op " << op;
  EXPECT_EQ(a.heater_fills, b.heater_fills) << "seed " << seed << " op " << op;
  EXPECT_EQ(a.heater_hits, b.heater_hits) << "seed " << seed << " op " << op;
  EXPECT_EQ(a.evictions, b.evictions) << "seed " << seed << " op " << op;
  EXPECT_EQ(a.writebacks, b.writebacks) << "seed " << seed << " op " << op;
}

struct GoldenConfig {
  const char* name;
  std::size_t size_bytes;
  unsigned assoc;
  unsigned reserved_ways;  // partition enabled at construction when > 0
};

// Power-of-two and sliced (non-power-of-two) set counts, with and without
// a way partition: 64x8, 12x4 (fastmod), 36x20 (fastmod, LLC-like ways),
// and a partitioned 16x8.
constexpr GoldenConfig kConfigs[] = {
    {"pow2_64x8", 64 * 8 * kCacheLine, 8, 0},
    {"sliced_12x4", 12 * 4 * kCacheLine, 4, 0},
    {"sliced_36x20", 36 * 20 * kCacheLine, 20, 0},
    {"part_16x8", 16 * 8 * kCacheLine, 8, 2},
};

FillReason draw_reason(Rng& rng) {
  const auto r = rng.below(10);
  if (r < 6) return FillReason::kDemand;
  if (r < 8) return FillReason::kPrefetch;
  return FillReason::kHeater;
}

// Build a cache of `size_bytes` and `assoc` ways, leave it holding live
// dirty, network and heater lines over stale ways of an earlier epoch, and
// destroy it: the next cache of the same geometry is built on its block.
// On a freshly allocated block the live lines [512, 512 + ways / 2) sit at
// epoch 1, so a cache of another shape handed that block would read their
// tags as live epoch-2 metadata.
void retire_cache(std::size_t size_bytes, unsigned assoc) {
  SetAssocCache old("old", size_bytes, assoc);
  const Addr ways = static_cast<Addr>(old.set_count() * assoc);
  for (Addr l = 0; l < ways; ++l)  // epoch 0, retired by the flush
    old.fill_line(1024 + l, FillReason::kDemand, LineClass::kNormal,
                  l % 2 == 1);
  old.flush();
  for (Addr l = 0; l < ways / 2; ++l)
    old.fill_line(512 + l, l % 3 ? FillReason::kDemand : FillReason::kHeater,
                  l % 4 ? LineClass::kNormal : LineClass::kNetwork,
                  l % 2 == 1);
  ASSERT_EQ(old.resident_lines(), ways / 2);
}

// Replay one random trace through both caches. With `predecessor_assoc`
// set, the cache under test is built on the storage block of a retired
// cache of that associativity (and the same size), and must start empty.
void replay_trace(const GoldenConfig& cfg, std::uint64_t seed,
                  unsigned predecessor_assoc = 0) {
  if (predecessor_assoc > 0) retire_cache(cfg.size_bytes, predecessor_assoc);
  SetAssocCache soa("soa", cfg.size_bytes, cfg.assoc);
  ReferenceSetAssocCache ref("ref", cfg.size_bytes, cfg.assoc);
  ASSERT_EQ(soa.resident_lines(), 0u) << cfg.name << " did not start empty";
  if (cfg.reserved_ways > 0) {
    soa.set_partition(cfg.reserved_ways);
    ref.set_partition(cfg.reserved_ways);
  }

  Rng rng(seed);
  // Address universe: ~2 lines of contention per way, offset by a random
  // 40-bit base so the fastmod path sees large tag values.
  const std::size_t capacity = soa.set_count() * cfg.assoc;
  const Addr base = rng.below(Addr{1} << 40);
  const Addr span = static_cast<Addr>(2 * capacity);
  const auto draw_line = [&] { return base + rng.below(span); };
  // Compute phases mostly repeat a few per-set stream sizes p, so pollute
  // alternates between its grown-sets-only walk (p no larger than the one
  // before) and its full walk (a larger p).
  const std::size_t normal_capacity = cfg.assoc - cfg.reserved_ways;
  const std::size_t repeated_per_set[] = {1, normal_capacity / 2,
                                          normal_capacity - 1};

  constexpr std::size_t kOps = 3000;
  for (std::size_t op = 0; op < kOps; ++op) {
    const Addr line = draw_line();
    // Class is a property of the address (a line is a network buffer or it
    // isn't): ~30% network, decorrelated from the set index by a hash.
    // Per-op randomness here would re-fill resident lines under a flipped
    // class, bypassing partitioned victim selection and (correctly)
    // tripping the quota audit in Debug.
    LineClass cls = (line * 0x9e3779b97f4a7c15ULL >> 60) < 5
                        ? LineClass::kNetwork
                        : LineClass::kNormal;
    // Unpartitioned caches have no quota to break: there, a refill may
    // flip a resident line's class (a network line turned normal grows its
    // set's normal count just as a miss fill does).
    if (cfg.reserved_ways == 0 && rng.below(4) == 0)
      cls = cls == LineClass::kNetwork ? LineClass::kNormal
                                       : LineClass::kNetwork;
    const std::uint64_t pick = rng.below(100);
    if (pick < 40) {  // demand access
      EXPECT_EQ(soa.access(line), ref.access(line))
          << cfg.name << " seed " << seed << " op " << op;
    } else if (pick < 55) {  // plain fill
      const FillReason reason = draw_reason(rng);
      EXPECT_EQ(soa.fill(line, reason, cls), ref.fill(line, reason, cls))
          << cfg.name << " seed " << seed << " op " << op;
    } else if (pick < 65) {  // fill_line, possibly dirty
      const FillReason reason = draw_reason(rng);
      const bool dirty = rng.chance(0.5);
      const auto a = soa.fill_line(line, reason, cls, dirty);
      const auto b = ref.fill_line(line, reason, cls, dirty);
      ASSERT_EQ(a.has_value(), b.has_value())
          << cfg.name << " seed " << seed << " op " << op;
      if (a) {
        EXPECT_EQ(a->line, b->line)
            << cfg.name << " seed " << seed << " op " << op;
        EXPECT_EQ(a->dirty, b->dirty)
            << cfg.name << " seed " << seed << " op " << op;
      }
    } else if (pick < 70) {  // fused probe+fill (heater stream path)
      EXPECT_EQ(soa.touch_fill(line, FillReason::kHeater, cls),
                ref.touch_fill(line, FillReason::kHeater, cls))
          << cfg.name << " seed " << seed << " op " << op;
    } else if (pick < 80) {  // pure probe
      EXPECT_EQ(soa.contains(line), ref.contains(line))
          << cfg.name << " seed " << seed << " op " << op;
    } else if (pick < 85) {  // store to a (maybe) resident line
      EXPECT_EQ(soa.mark_dirty(line), ref.mark_dirty(line))
          << cfg.name << " seed " << seed << " op " << op;
    } else if (pick < 88) {
      EXPECT_EQ(soa.line_dirty(line), ref.line_dirty(line))
          << cfg.name << " seed " << seed << " op " << op;
    } else if (pick < 93) {  // back-invalidation
      soa.invalidate(line);
      ref.invalidate(line);
    } else if (pick < 96) {  // compute-phase displacement
      const std::size_t bytes =
          rng.below(4) == 0
              ? static_cast<std::size_t>(rng.below(2 * cfg.size_bytes))
              : repeated_per_set[rng.below(3)] * soa.set_count() * kCacheLine;
      soa.pollute(bytes);
      ref.pollute(bytes);
    } else if (pick < 98) {  // full clear (O(1) epoch bump vs eager purge)
      soa.flush();
      ref.flush();
    } else if (pick < 99) {  // stats reset must not disturb equivalence
      expect_stats_eq(soa.stats(), ref.stats(), seed, op);
      soa.reset_stats();
      ref.reset_stats();
    } else {  // occupancy accounting
      EXPECT_EQ(soa.resident_lines(), ref.resident_lines())
          << cfg.name << " seed " << seed << " op " << op;
      EXPECT_EQ(soa.resident_lines_filled_by(FillReason::kHeater),
                ref.resident_lines_filled_by(FillReason::kHeater))
          << cfg.name << " seed " << seed << " op " << op;
    }
    if (op % 512 == 0) expect_stats_eq(soa.stats(), ref.stats(), seed, op);
    if (::testing::Test::HasFailure()) return;  // first divergence is enough
  }

  // Final-state equivalence: stats, occupancy split, and the exact
  // resident set with per-line dirty bits, swept over the whole universe.
  expect_stats_eq(soa.stats(), ref.stats(), seed, kOps);
  EXPECT_EQ(soa.resident_lines(), ref.resident_lines()) << cfg.name;
  for (const FillReason r : {FillReason::kDemand, FillReason::kPrefetch,
                             FillReason::kHeater}) {
    EXPECT_EQ(soa.resident_lines_filled_by(r), ref.resident_lines_filled_by(r))
        << cfg.name << " seed " << seed;
  }
  for (Addr line = base; line < base + span; ++line) {
    ASSERT_EQ(soa.contains(line), ref.contains(line))
        << cfg.name << " seed " << seed << " line " << line;
    ASSERT_EQ(soa.line_dirty(line), ref.line_dirty(line))
        << cfg.name << " seed " << seed << " line " << line;
  }
  soa.audit();  // no-op unless SEMPERM_AUDIT; full structural walk otherwise
}

TEST(CacheGolden, BitIdenticalToReferenceOverRandomTraces) {
  // 400 traces: 4 configurations x 100 seeds. A class flip that grows an
  // unmarked set right before a grown-sets-only pollute is a rare event;
  // this many traces catch a missing grown mark in over a dozen of them.
  for (const GoldenConfig& cfg : kConfigs) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      replay_trace(cfg, seed * 0x9e3779b97f4a7c15ULL + cfg.assoc);
      if (::testing::Test::HasFailure()) {
        FAIL() << "divergence in config " << cfg.name << " seed-index "
               << seed;
      }
    }
  }
}

// Recycled storage: every geometry replays on the block of a retired cache
// of the same geometry that still held live dirty and network lines.
TEST(CacheGolden, BitIdenticalOnRecycledStorage) {
  for (const GoldenConfig& cfg : kConfigs) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      replay_trace(cfg, seed * 0xd1b54a32d192ed03ULL + cfg.assoc, cfg.assoc);
      if (::testing::Test::HasFailure())
        FAIL() << "divergence in config " << cfg.name << " seed-index "
               << seed;
    }
  }
}

// 32 KiB 8-way and 32 KiB 16-way blocks have the same size but not the
// same shape: a cache of one must never start on the block of the other.
// Run as its own process (ctest runs every case so), the retired 8-way
// cache is freshly allocated, so its live tags [512, 768) read as live
// epoch-2 metadata to a 16-way cache handed its block.
TEST(CacheGolden, SameSizeOtherShapeStartsEmpty) {
  const GoldenConfig l1_16way{"32k_16way", 32 * 1024, 16, 0};
  replay_trace(l1_16way, 0x5eed, /*predecessor_assoc=*/8);
}

// The fastmod set indexing must be exact — bit-identical to `%` — or the
// simulated statistics of sliced LLCs silently change.
TEST(CacheGolden, Fastmod64MatchesModuloExactly) {
  const std::uint64_t divisors[] = {3,    12,   36,    1152,
                                    4999, 36864, 92160, (1ull << 33) - 1};
  Rng rng(0xfa57);
  for (const std::uint64_t d : divisors) {
    const auto magic = fastmod_magic(d);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t n = rng();
      ASSERT_EQ(fastmod64(n, d, magic), n % d) << "n=" << n << " d=" << d;
    }
    // Boundary values around multiples of d.
    for (const std::uint64_t n :
         {std::uint64_t{0}, d - 1, d, d + 1, 7 * d - 1, 7 * d,
          ~std::uint64_t{0}, ~std::uint64_t{0} - d}) {
      ASSERT_EQ(fastmod64(n, d, magic), n % d) << "n=" << n << " d=" << d;
    }
  }
}

}  // namespace
}  // namespace semperm::cachesim

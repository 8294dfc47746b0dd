// Golden-equivalence property test for the flat SoA cache rewrite
// (DESIGN.md §10): replay randomized operation traces through the new
// SetAssocCache and through the retained pre-rewrite implementation
// (tests/reference_cache.hpp) and require *bit-identical* behaviour —
// every return value, every statistics counter, every eviction decision,
// and the final resident set with its dirty bits. The one-word-per-way
// layout, the lazy stale-epoch filtering and its 12-bit epoch wrap, the
// fastmod set indexing, the running dirty-way count behind flush(), the
// grown-set walk of pollute() and the recycled storage blocks are all
// supposed to be pure representation changes; this test is what pins that
// down.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
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
// epoch 1.
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
// same shape: a 16-way cache built after an 8-way one retired holding live
// lines [512, 768) must start empty and replay exactly.
TEST(CacheGolden, SameSizeOtherShapeStartsEmpty) {
  const GoldenConfig l1_16way{"32k_16way", 32 * 1024, 16, 0};
  replay_trace(l1_16way, 0x5eed, /*predecessor_assoc=*/8);
}

// The epoch field is 12 bits: the 4095th epoch bump of a cache stamps
// every way stale and restarts at epoch 0. Three times that many flushes
// cross at least two restarts from whatever epoch the cache starts at.
// The cache is filled to its last way first, so ways that no later fill
// reaches keep words of the first epoch; every flush finds live dirty,
// network and normal lines resident.
TEST(CacheGolden, BitIdenticalAcrossEpochWraps) {
  constexpr std::size_t kFlushes = 3 * 4095;
  for (const GoldenConfig& cfg : {kConfigs[1], kConfigs[3]}) {
    SetAssocCache soa("soa", cfg.size_bytes, cfg.assoc);
    ReferenceSetAssocCache ref("ref", cfg.size_bytes, cfg.assoc);
    if (cfg.reserved_ways > 0) {
      soa.set_partition(cfg.reserved_ways);
      ref.set_partition(cfg.reserved_ways);
    }
    Rng rng(0xe9 + cfg.assoc);
    const Addr capacity = static_cast<Addr>(soa.set_count() * cfg.assoc);
    const Addr base = rng.below(Addr{1} << 40);
    // Class is a property of the address, as in replay_trace.
    const auto class_of = [](Addr line) {
      return (line * 0x9e3779b97f4a7c15ULL >> 60) < 5 ? LineClass::kNetwork
                                                      : LineClass::kNormal;
    };
    const auto fill_both = [&](Addr line, FillReason reason, bool dirty,
                               std::size_t f) {
      const auto a = soa.fill_line(line, reason, class_of(line), dirty);
      const auto b = ref.fill_line(line, reason, class_of(line), dirty);
      ASSERT_EQ(a.has_value(), b.has_value()) << cfg.name << " flush " << f;
      if (a) {
        EXPECT_EQ(a->line, b->line) << cfg.name << " flush " << f;
        EXPECT_EQ(a->dirty, b->dirty) << cfg.name << " flush " << f;
      }
    };
    // Lines of each class to leave resident at every flush.
    const auto draw_of_class = [&](LineClass cls) {
      Addr line;
      do line = base + rng.below(2 * capacity);
      while (class_of(line) != cls);
      return line;
    };
    for (Addr l = 0; l < 2 * capacity; ++l)
      fill_both(base + l, FillReason::kDemand, l % 2 == 1, 0);
    for (std::size_t f = 0; f < kFlushes; ++f) {
      for (int k = 0; k < 6; ++k) {
        const Addr line = base + rng.below(2 * capacity);
        const std::uint64_t pick = rng.below(10);
        if (pick < 4) {
          ASSERT_EQ(soa.access(line), ref.access(line))
              << cfg.name << " flush " << f;
        } else if (pick < 7) {
          fill_both(line, draw_reason(rng), rng.chance(0.5), f);
        } else if (pick < 8) {
          soa.invalidate(line);
          ref.invalidate(line);
        } else {
          ASSERT_EQ(soa.contains(line), ref.contains(line))
              << cfg.name << " flush " << f;
        }
      }
      const Addr dirty = draw_of_class(LineClass::kNormal);
      const Addr network = draw_of_class(LineClass::kNetwork);
      fill_both(dirty, FillReason::kDemand, /*dirty=*/true, f);
      fill_both(network, FillReason::kPrefetch, rng.chance(0.5), f);
      ASSERT_TRUE(soa.line_dirty(dirty) && soa.contains(network))
          << cfg.name << " flush " << f;
      soa.flush();
      ref.flush();
      ASSERT_EQ(soa.resident_lines(), 0u) << cfg.name << " flush " << f;
      if (f % 256 == 0) expect_stats_eq(soa.stats(), ref.stats(), f, 0);
      if (::testing::Test::HasFailure()) return;
    }
    expect_stats_eq(soa.stats(), ref.stats(), kFlushes, 0);
    for (Addr line = base; line < base + 2 * capacity; ++line) {
      fill_both(line, draw_reason(rng), rng.chance(0.5), kFlushes);
      ASSERT_EQ(soa.line_dirty(line), ref.line_dirty(line)) << cfg.name;
    }
    for (Addr line = base; line < base + 2 * capacity; ++line)
      ASSERT_EQ(soa.contains(line), ref.contains(line)) << cfg.name;
    soa.audit();
  }
}

// A cache destroyed at epoch 0xFFE hands its block to the next cache of
// its geometry, whose next epoch would be the never-current 0xFFF: that
// cache restarts at epoch 0, so the ways the old one invalidated (stamped
// 0xFFF) stay holes and it starts empty. Run as its own process (ctest
// runs every case so), the old cache starts on a fresh block at epoch 0.
TEST(CacheGolden, RecycledAtLastEpochStartsEmpty) {
  const GoldenConfig cfg{"24x6", 24 * 6 * kCacheLine, 6, 0};
  {
    SetAssocCache old("old", cfg.size_bytes, cfg.assoc);
    for (int f = 0; f < 0xFFE; ++f) old.flush();
    const Addr ways = static_cast<Addr>(old.set_count() * cfg.assoc);
    for (Addr l = 0; l < ways; ++l)
      old.fill_line(l, FillReason::kDemand,
                    l % 4 ? LineClass::kNormal : LineClass::kNetwork,
                    l % 2 == 1);
    for (Addr l = 0; l < ways; l += 3) old.invalidate(l);
    ASSERT_EQ(old.resident_lines(), ways - ways / 3);
  }
  replay_trace(cfg, 0xffe);
}

// A way's word keeps 44 bits of line: line 2^44 - 1 is the largest a cache
// holds, and a larger line throws instead of hitting the way of the line
// 2^44 below it.
TEST(CacheGolden, LinesBelowTwoToThe44) {
  SetAssocCache c("c", 64 * 8 * kCacheLine, 8);
  const Addr limit = Addr{1} << 44;
  EXPECT_FALSE(c.access(limit - 1));
  EXPECT_FALSE(c.fill_line(limit - 1, FillReason::kDemand).has_value());
  EXPECT_TRUE(c.access(limit - 1));
  c.fill_line(5, FillReason::kDemand);
  EXPECT_TRUE(c.contains(5));
  EXPECT_THROW(c.access(limit), std::logic_error);
  EXPECT_THROW(c.contains(limit), std::logic_error);
  EXPECT_THROW(c.fill_line(limit, FillReason::kDemand), std::logic_error);
  EXPECT_THROW(c.access(limit + 5), std::logic_error);
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

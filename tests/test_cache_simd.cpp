// Scalar-vs-SIMD equivalence for the packed way probe (DESIGN.md §15).
//
// The vector backends of common/simd.hpp must be bit-identical to the
// always-compiled scalar oracle — same per-way mask — for every
// associativity the simulator uses, including the stale-epoch duplicates
// of a line the lazy flush leaves behind (the reason the epoch field is
// part of the probe's key rather than a post-filter). Two layers pin this:
//
//  * primitive fuzz: meta_match_mask against its scalar oracle over
//    adversarial inputs (dead epochs, every n from 1 to 24 so each
//    backend exercises its vector body and its tail lanes), and find_u64
//    against a linear scan;
//  * whole-cache replay: SetAssocCache (whose find_way sits on the
//    probe) against the pre-rewrite reference implementation across the
//    four golden geometries — pow2, two fastmod-sliced shapes, and a way
//    partition — under a probe-heavy operation mix, and after flushes
//    that leave a stale duplicate of every line the next walk probes.
//
// The backend follows the target, so on a host with a vector unit the
// suite compares the vector path against the scalar oracle; a target with
// no recognised vector unit runs the scalar fallback itself.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cachesim/cache.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "reference_cache.hpp"

namespace semperm::cachesim {
namespace {

using testing::ReferenceSetAssocCache;

TEST(SimdBackend, ReportsConfiguredMode) {
  // The name feeds bench JSON and the CI vector-backend assertion; it must
  // be stable and agree with vectorized().
  const std::string name = simd::backend();
  EXPECT_FALSE(name.empty());
  EXPECT_EQ(simd::vectorized(), name != "scalar");
}

TEST(SimdPrimitives, MetaMaskMatchesScalarOracle) {
  Rng rng(0x52);
  for (int iter = 0; iter < 20000; ++iter) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.below(24));
    std::vector<std::uint64_t> meta(n);
    for (auto& m : meta) m = rng.below(4) << 8 | rng.below(16);
    const std::uint64_t mask = rng.chance(0.5) ? ~std::uint64_t{0xFF}
                                               : std::uint64_t{0xF};
    const std::uint64_t want = rng.below(16) & mask;
    EXPECT_EQ(simd::meta_match_mask(meta.data(), n, mask, want),
              simd::meta_match_mask_scalar(meta.data(), n, mask, want))
        << "iter " << iter << " n " << n;
  }
}

TEST(SimdPrimitives, FindU64MatchesLinearScan) {
  Rng rng(0x53);
  for (int iter = 0; iter < 20000; ++iter) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.below(17));
    std::vector<std::uint64_t> vals(n);
    for (auto& v : vals) v = rng.below(8);
    const std::uint64_t val = rng.below(8);
    std::size_t expect = n;
    for (std::size_t i = 0; i < n; ++i)
      if (vals[i] == val) {
        expect = i;
        break;
      }
    EXPECT_EQ(simd::find_u64(vals.data(), n, val), expect)
        << "iter " << iter << " n " << n;
  }
}

struct Geometry {
  const char* name;
  std::size_t size_bytes;
  unsigned assoc;
  unsigned reserved_ways;
};

// The four golden geometries: power-of-two, two fastmod-sliced shapes
// (one with LLC-like 20 ways, past the widest vector block), and a way
// partition (probe predicate carries the class bits).
constexpr Geometry kGeometries[] = {
    {"pow2_64x8", 64 * 8 * kCacheLine, 8, 0},
    {"sliced_12x4", 12 * 4 * kCacheLine, 4, 0},
    {"sliced_36x20", 36 * 20 * kCacheLine, 20, 0},
    {"part_16x8", 16 * 8 * kCacheLine, 8, 2},
};

// Probe-heavy replay: the mix leans on access/contains (the find_way
// paths) and flushes often enough that most sets carry stale-epoch
// duplicates of live tags — the case where a probe that checked tags but
// not metadata would return the wrong way.
void replay_probe_trace(const Geometry& g, std::uint64_t seed) {
  SetAssocCache soa("soa", g.size_bytes, g.assoc);
  ReferenceSetAssocCache ref("ref", g.size_bytes, g.assoc);
  if (g.reserved_ways > 0) {
    soa.set_partition(g.reserved_ways);
    ref.set_partition(g.reserved_ways);
  }
  Rng rng(seed);
  const std::size_t capacity = soa.set_count() * g.assoc;
  const Addr base = rng.below(Addr{1} << 40);
  const auto draw_line = [&] {
    return base + rng.below(static_cast<Addr>(2 * capacity));
  };
  constexpr std::size_t kOps = 4000;
  for (std::size_t op = 0; op < kOps; ++op) {
    const Addr line = draw_line();
    const LineClass cls = (line * 0x9e3779b97f4a7c15ULL >> 60) < 5
                              ? LineClass::kNetwork
                              : LineClass::kNormal;
    const std::uint64_t pick = rng.below(100);
    if (pick < 45) {
      EXPECT_EQ(soa.access(line), ref.access(line))
          << g.name << " seed " << seed << " op " << op;
    } else if (pick < 70) {
      EXPECT_EQ(soa.contains(line), ref.contains(line))
          << g.name << " seed " << seed << " op " << op;
    } else if (pick < 90) {
      EXPECT_EQ(soa.fill(line, FillReason::kDemand, cls),
                ref.fill(line, FillReason::kDemand, cls))
          << g.name << " seed " << seed << " op " << op;
    } else if (pick < 97) {
      EXPECT_EQ(soa.mark_dirty(line), ref.mark_dirty(line))
          << g.name << " seed " << seed << " op " << op;
    } else {
      // Epoch bump: every resident way becomes a stale duplicate of its
      // own tag until the lazy purge overwrites it.
      soa.flush();
      ref.flush();
    }
  }
  EXPECT_EQ(soa.resident_lines(), ref.resident_lines())
      << g.name << " seed " << seed;
  EXPECT_EQ(soa.stats().demand_hits, ref.stats().demand_hits)
      << g.name << " seed " << seed;
  EXPECT_EQ(soa.stats().demand_misses, ref.stats().demand_misses)
      << g.name << " seed " << seed;
  EXPECT_EQ(soa.stats().evictions, ref.stats().evictions)
      << g.name << " seed " << seed;
}

TEST(SimdCacheEquivalence, ProbeTraceMatchesReferenceAcrossGeometries) {
  for (const Geometry& g : kGeometries)
    for (std::uint64_t seed = 1; seed <= 6; ++seed)
      replay_probe_trace(g, seed * 0x9d5);
}

// The app model's pattern: fill a set's every way, flush, then walk the
// same lines again, missing and refilling. After each flush every way
// holds a stale duplicate of a line the walk probes; part of the lines are
// refilled before the walk, so live ways sit among the duplicates.
TEST(SimdCacheEquivalence, FlushThenProbeSameLines) {
  for (const unsigned assoc : {1u, 2u, 3u, 4u, 8u, 16u, 20u, 64u}) {
    constexpr std::size_t kSets = 16;
    SetAssocCache soa("soa", kSets * assoc * kCacheLine, assoc);
    ReferenceSetAssocCache ref("ref", kSets * assoc * kCacheLine, assoc);
    const Addr lines = kSets * assoc;
    for (Addr l = 0; l < lines; ++l) {
      soa.fill(l, FillReason::kDemand);
      ref.fill(l, FillReason::kDemand);
    }
    for (Addr round = 0; round < 4; ++round) {
      soa.flush();
      ref.flush();
      for (Addr l = round; l < lines; l += 3) {
        soa.fill(l, FillReason::kDemand);
        ref.fill(l, FillReason::kDemand);
      }
      for (Addr l = 0; l < lines; ++l) {
        const Addr line = (l * 7 + round) % lines;
        ASSERT_EQ(soa.contains(line), ref.contains(line))
            << "assoc " << assoc << " round " << round << " line " << line;
        const bool hit = soa.access(line);
        ASSERT_EQ(hit, ref.access(line))
            << "assoc " << assoc << " round " << round << " line " << line;
        if (!hit) {
          soa.fill(line, FillReason::kDemand);
          ref.fill(line, FillReason::kDemand);
        }
      }
      EXPECT_EQ(soa.resident_lines(), ref.resident_lines()) << assoc;
      EXPECT_EQ(soa.stats().demand_hits, ref.stats().demand_hits) << assoc;
      EXPECT_EQ(soa.stats().demand_misses, ref.stats().demand_misses)
          << assoc;
    }
  }
}

}  // namespace
}  // namespace semperm::cachesim

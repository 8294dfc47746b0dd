#include "common/zipf.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "reference_zipf.hpp"

namespace semperm::traffic {
namespace {

using testing::ReferenceZipf;

TEST(ZipfSampler, PmfSumsToOneAndCdfIsPinned) {
  const ZipfSampler zipf(1000, 1.0);
  const ReferenceZipf ref(1000, 1.0);
  double sum = 0.0;
  for (std::uint64_t r = 0; r < zipf.support(); ++r) sum += zipf.pmf(r);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(ref.cdf(zipf.support() - 1), 1.0);
}

TEST(ZipfSampler, CdfIsMonotoneAndMatchesPmf) {
  const ZipfSampler zipf(257, 0.8);
  const ReferenceZipf ref(257, 0.8);
  double acc = 0.0;
  for (std::uint64_t r = 0; r < zipf.support(); ++r) {
    acc += zipf.pmf(r);
    EXPECT_NEAR(ref.cdf(r), acc, 1e-9) << "rank " << r;
    if (r > 0) {
      EXPECT_GT(ref.cdf(r), ref.cdf(r - 1));
    }
  }
}

TEST(ZipfSampler, ZeroSkewIsUniform) {
  const ZipfSampler zipf(64, 0.0);
  for (std::uint64_t r = 0; r < zipf.support(); ++r)
    EXPECT_NEAR(zipf.pmf(r), 1.0 / 64.0, 1e-12);
}

TEST(ZipfSampler, HigherSkewConcentratesTheHead) {
  const ZipfSampler mild(4096, 0.6);
  const ZipfSampler steep(4096, 1.2);
  EXPECT_GT(steep.pmf(0), mild.pmf(0));
  // Top-10 mass grows with s.
  EXPECT_GT(ReferenceZipf(4096, 1.2).cdf(9), ReferenceZipf(4096, 0.6).cdf(9));
}

// Satellite property test: the empirical rank frequencies of the alias
// backend must match the analytic pmf.
TEST(ZipfSampler, EmpiricalMatchesAnalyticPmf) {
  const std::uint64_t support = 512;
  const ZipfSampler zipf(support, 1.0);
  Rng rng(0x2157);
  const std::size_t draws = 400'000;
  std::vector<std::uint64_t> counts(support, 0);
  for (std::size_t i = 0; i < draws; ++i) {
    const std::uint64_t r = zipf(rng);
    ASSERT_LT(r, support);
    ++counts[r];
  }
  // Head ranks: tight relative tolerance; whole support: loose absolute.
  for (std::uint64_t r = 0; r < 10; ++r) {
    const double expected = zipf.pmf(r) * draws;
    EXPECT_NEAR(counts[r], expected, 0.05 * expected + 30.0) << "rank " << r;
  }
  for (std::uint64_t r = 0; r < support; ++r)
    EXPECT_NEAR(static_cast<double>(counts[r]) / draws, zipf.pmf(r), 0.004)
        << "rank " << r;
}

// The alias table and the reference's inverse CDF sample the same
// distribution (Kolmogorov–Smirnov style sup-distance between their
// empirical CDFs).
TEST(ZipfSampler, AliasAndCdfBackendsAgree) {
  const std::uint64_t support = 300;
  const ZipfSampler zipf(support, 1.1);
  const ReferenceZipf ref(support, 1.1);
  Rng a(0xa11a5), b(0xcdf);
  const std::size_t draws = 200'000;
  std::vector<double> ca(support, 0), cb(support, 0);
  for (std::size_t i = 0; i < draws; ++i) {
    ++ca[zipf(a)];
    ++cb[ref.sample_cdf(b)];
  }
  double acc_a = 0, acc_b = 0, sup = 0;
  for (std::uint64_t r = 0; r < support; ++r) {
    acc_a += ca[r] / draws;
    acc_b += cb[r] / draws;
    sup = std::max(sup, std::abs(acc_a - acc_b));
  }
  EXPECT_LT(sup, 0.01);
}

// Both backends consume exactly two draws per sample, so swapping them
// never perturbs a downstream seeded stream.
TEST(ZipfSampler, BackendsConsumeIdenticalRngDraws) {
  const ZipfSampler zipf(1024, 0.9);
  const ReferenceZipf ref(1024, 0.9);
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    (void)zipf(a);
    (void)ref.sample_cdf(b);
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.below(1 << 30), b.below(1 << 30));
}

// First index where two equally long arrays differ in any bit, or their
// length when they agree everywhere.
template <typename A, typename B>
std::size_t first_difference(const A& got, const B& want) {
  using Bits = std::conditional_t<sizeof(got[0]) == 8, std::uint64_t,
                                  std::uint32_t>;
  for (std::size_t i = 0; i < want.size(); ++i)
    if (std::bit_cast<Bits>(got[i]) != std::bit_cast<Bits>(want[i])) return i;
  return want.size();
}

// The in-place, threaded, stackless build must produce the original
// constructor's table bit for bit: the normalizer, every acceptance
// probability and every alias. 3 * 2^16 + 5 and 2^20 + 7 ranks take
// several chunks (at most one per 2^16 ranks, up to four threads), and no
// chunk count divides n. At n = 49 and s = 0 every scaled weight rounds
// just below 1, so no slot is large and the pairing ends at once; at
// s = 2.5 the head absorbs most of the mass.
TEST(ZipfAliasTable, BitIdenticalToReference) {
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{49}, std::uint64_t{1000},
        (std::uint64_t{1} << 16) - 1, (std::uint64_t{1} << 16) + 1,
        (std::uint64_t{3} << 16) + 5, (std::uint64_t{1} << 20) + 7}) {
    for (const double s : {0.0, 0.6, 1.05, 1.2, 2.5}) {
      SCOPED_TRACE(::testing::Message() << "n=" << n << " s=" << s);
      const ZipfAliasTable table = build_zipf_alias_table(n, s);
      const ReferenceZipf ref(n, s);
      EXPECT_EQ(table.norm, ref.norm_)
          << std::hexfloat << table.norm << " vs " << ref.norm_;
      const ZipfSampler zipf(n, s);
      for (const std::uint64_t r : {std::uint64_t{0}, n / 2, n - 1})
        EXPECT_EQ(zipf.pmf(r), ref.pmf(r)) << "rank " << r;
      ASSERT_EQ(table.accept.size(), n);
      ASSERT_EQ(table.alias.size(), n);
      const std::size_t a = first_difference(table.accept, ref.accept_);
      if (a < n) {
        EXPECT_EQ(table.accept[a], ref.accept_[a])
            << "acceptance, slot " << a << ": " << std::hexfloat
            << table.accept[a] << " vs " << ref.accept_[a];
      }
      const std::size_t l = first_difference(table.alias, ref.alias_);
      if (l < n) {
        EXPECT_EQ(table.alias[l], ref.alias_[l]) << "alias, slot " << l;
      }
      EXPECT_EQ(a, n) << "first differing acceptance entry";
      EXPECT_EQ(l, n) << "first differing alias entry";
    }
  }
}

// Same seed, same stream: a million draws through the sampler and the
// original alias table from one seeded Rng agree draw for draw.
TEST(ZipfSampler, DrawsBitIdenticalToReference) {
  const std::uint64_t n = (std::uint64_t{1} << 20) + 7;
  const ZipfSampler zipf(n, 1.05);
  const ReferenceZipf ref(n, 1.05);
  Rng a(0x5eed), b(0x5eed);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t got = zipf(a);
    const std::uint64_t want = ref(b);
    if (got != want) {
      ASSERT_EQ(got, want) << "draw " << i;
    }
  }
}

TEST(RankMixer, IsABijectionOnNonPowerOfTwoSupport) {
  const std::uint64_t n = 1000;
  const RankMixer mix = RankMixer::make(n, 0x5eed);
  std::set<std::uint64_t> seen;
  for (std::uint64_t r = 0; r < n; ++r) {
    const std::uint64_t m = mix(r);
    ASSERT_LT(m, n);
    seen.insert(m);
  }
  EXPECT_EQ(seen.size(), n);
}

TEST(RankMixer, SeedChangesThePermutation) {
  const RankMixer m1 = RankMixer::make(4096, 1);
  const RankMixer m2 = RankMixer::make(4096, 2);
  int diff = 0;
  for (std::uint64_t r = 0; r < 4096; ++r) diff += m1(r) != m2(r) ? 1 : 0;
  EXPECT_GT(diff, 4000);
}

// The mixer's 64-bit arithmetic is exact up to the 2^32 support bound:
// compare it with the 128-bit formula at the largest rank.
TEST(RankMixer, SixtyFourBitArithmeticIsExactAtTheSupportBound) {
  for (const std::uint64_t n :
       {std::uint64_t{1} << 32, (std::uint64_t{1} << 32) - 1}) {
    std::vector<RankMixer> mixers;
    for (std::uint64_t seed = 0; seed < 16; ++seed)
      mixers.push_back(RankMixer::make(n, seed));
    mixers.push_back(RankMixer{n - 1, n - 1, n});  // largest a and b
    for (const RankMixer& m : mixers) {
      for (const std::uint64_t rank : {n - 1, n - 2, n / 2}) {
        const auto wide = static_cast<std::uint64_t>(
            (static_cast<__uint128_t>(rank) * m.a + m.b) % n);
        EXPECT_EQ(m(rank), wide)
            << "n=" << n << " a=" << m.a << " b=" << m.b << " rank=" << rank;
      }
    }
  }
  EXPECT_THROW(RankMixer::make((std::uint64_t{1} << 32) + 1, 1),
               std::logic_error);
}

}  // namespace
}  // namespace semperm::traffic

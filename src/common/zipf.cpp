#include "common/zipf.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <thread>

#include "common/affinity.hpp"
#include "common/assert.hpp"

namespace semperm::traffic {

namespace {

// Ranks per weight-pass chunk, at least: below 2^17 ranks the pass runs on
// the calling thread alone, where a thread start would cost more than the
// std::pow calls it saves.
constexpr std::uint64_t kMinChunkRanks = std::uint64_t{1} << 16;
constexpr std::uint64_t kMaxChunks = 4;

double zipf_weight(std::uint64_t rank, double s) {
  return s == 0.0 ? 1.0 : std::pow(static_cast<double>(rank + 1), -s);
}

// Unnormalized weights of ranks [begin, end), each computed on its own, so
// splitting the ranks into chunks cannot change a bit; every slot starts
// as its own alias.
void fill_weights(double* w, std::uint32_t* alias, std::uint64_t begin,
                  std::uint64_t end, double s) {
  for (std::uint64_t r = begin; r < end; ++r) {
    w[r] = zipf_weight(r, s);
    alias[r] = static_cast<std::uint32_t>(r);
  }
}

}  // namespace

ZipfAliasTable build_zipf_alias_table(std::uint64_t support, double s) {
  SEMPERM_ASSERT_MSG(support > 0, "Zipf support must be non-empty");
  SEMPERM_ASSERT_MSG(support <= (std::uint64_t{1} << 32),
                     "alias table indexes ranks with 32 bits");
  SEMPERM_ASSERT_MSG(s >= 0.0, "negative skew is not a Zipf distribution");
  const std::uint64_t n = support;
  ZipfAliasTable t;
  t.accept.resize(n);
  t.alias.resize(n);
  double* const w = t.accept.data();
  std::uint32_t* const alias = t.alias.data();

  // Chunk c covers ranks [n*c/chunks, n*(c+1)/chunks); the calling thread
  // takes chunk 0. Helpers get their arguments by value: one that read
  // them from this stack frame would share a cache line with the calling
  // thread's spills and run two to three times slower.
  const std::uint64_t chunks = std::clamp<std::uint64_t>(
      n / kMinChunkRanks, 1,
      std::min(static_cast<std::uint64_t>(online_cpu_count()), kMaxChunks));
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(chunks - 1);
    for (std::uint64_t c = 1; c < chunks; ++c)
      helpers.emplace_back(fill_weights, w, alias, n * c / chunks,
                           n * (c + 1) / chunks, s);
    fill_weights(w, alias, 0, n / chunks, s);
  }

  // The sum stays one sequential pass in rank order: per-chunk partial
  // sums would round differently and move norm and every table entry.
  // Kahan-free double accumulation is fine here: n <= 2^32 terms of the
  // same sign keep the relative error around 1e-12.
  double sum = 0.0;
  for (std::uint64_t r = 0; r < n; ++r) sum += w[r];
  t.norm = sum;

  // Vose's alias method: scale each probability by n in place, then pair
  // every deficient ("small") slot with a donor ("large") slot. Both
  // stacks live in one n-entry buffer — small grows from the front, large
  // from the back — since a slot is on at most one of them. A small
  // slot's scaled value is final once it is pushed, so it is already its
  // acceptance probability when popped.
  const auto stacks = std::make_unique_for_overwrite<std::uint32_t[]>(n);
  std::uint64_t small = 0;  // stacks[0, small)
  std::uint64_t large = n;  // stacks[large, n), top at stacks[large]
  for (std::uint64_t r = 0; r < n; ++r) {
    w[r] = w[r] / sum * static_cast<double>(n);
    if (w[r] < 1.0) {
      stacks[small++] = static_cast<std::uint32_t>(r);
    } else {
      stacks[--large] = static_cast<std::uint32_t>(r);
    }
  }
  while (small > 0 && large < n) {
    const std::uint32_t s_slot = stacks[--small];
    const std::uint32_t l_slot = stacks[large];
    alias[s_slot] = l_slot;
    w[l_slot] -= 1.0 - w[s_slot];
    if (w[l_slot] < 1.0) {
      ++large;
      stacks[small++] = l_slot;
    }
  }
  // Leftovers on either stack hold (numerically) exactly probability 1.
  for (std::uint64_t i = 0; i < small; ++i) w[stacks[i]] = 1.0;
  for (std::uint64_t i = large; i < n; ++i) w[stacks[i]] = 1.0;
  return t;
}

ZipfSampler::ZipfSampler(std::uint64_t support, double s)
    : n_(support), s_(s), table_(build_zipf_alias_table(support, s)) {}

double ZipfSampler::pmf(std::uint64_t rank) const {
  SEMPERM_ASSERT(rank < n_);
  return zipf_weight(rank, s_) / table_.norm;
}

RankMixer RankMixer::make(std::uint64_t n, std::uint64_t seed) {
  SEMPERM_ASSERT(n > 0);
  SEMPERM_ASSERT(n <= (std::uint64_t{1} << 32));
  RankMixer m;
  m.n = n;
  std::uint64_t sm = seed;
  // An odd multiplier is coprime to any power of two; for general n bump
  // until gcd hits 1 (terminates quickly — half of all integers are
  // coprime to n on average within a few steps).
  m.a = (splitmix64(sm) | 1) % n;
  if (m.a == 0) m.a = 1;
  while (std::gcd(m.a, n) != 1) ++m.a;
  m.b = splitmix64(sm) % n;
  return m;
}

}  // namespace semperm::traffic

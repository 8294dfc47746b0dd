#include "common/zipf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

#include "common/affinity.hpp"
#include "common/assert.hpp"

namespace semperm::traffic {

namespace {

// Ranks per chunk of the weight and scaling passes, at least: below 2^17
// ranks a pass runs on the calling thread alone, where a thread start
// would cost more than the std::pow calls it saves.
constexpr std::uint64_t kMinChunkRanks = std::uint64_t{1} << 16;
constexpr std::uint64_t kMaxChunks = 4;

double zipf_weight(std::uint64_t rank, double s) {
  return s == 0.0 ? 1.0 : std::pow(static_cast<double>(rank + 1), -s);
}

// Run `pass(begin, end)` over `chunks` contiguous chunks of [0, n): chunk c
// covers [n*c/chunks, n*(c+1)/chunks) and the calling thread takes chunk
// 0. Helpers get their arguments by value: one that read them from the
// caller's stack frame would share a cache line with the calling thread's
// spills and run two to three times slower.
template <typename Pass>
void run_chunks(std::uint64_t n, std::uint64_t chunks, Pass pass) {
  std::vector<std::jthread> helpers;
  helpers.reserve(chunks - 1);
  for (std::uint64_t c = 1; c < chunks; ++c)
    helpers.emplace_back(pass, n * c / chunks, n * (c + 1) / chunks);
  pass(std::uint64_t{0}, n / chunks);
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

  const std::uint64_t chunks = std::clamp<std::uint64_t>(
      n / kMinChunkRanks, 1,
      std::min(static_cast<std::uint64_t>(online_cpu_count()), kMaxChunks));
  // Unnormalized weights, each computed on its own, so splitting the ranks
  // into chunks cannot change a bit; every slot starts as its own alias.
  run_chunks(n, chunks, [w, alias, s](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t r = b; r < e; ++r) {
      w[r] = zipf_weight(r, s);
      alias[r] = static_cast<std::uint32_t>(r);
    }
  });

  // The sum stays one sequential pass in rank order: per-chunk partial
  // sums would round differently and move norm and every table entry.
  // Kahan-free double accumulation is fine here: n <= 2^32 terms of the
  // same sign keep the relative error around 1e-12.
  double sum = 0.0;
  for (std::uint64_t r = 0; r < n; ++r) sum += w[r];
  t.norm = sum;
  // Vose's scaling, probability times n: elementwise again, so chunked.
  const double dn = static_cast<double>(n);
  run_chunks(n, chunks, [w, sum, dn](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t r = b; r < e; ++r) w[r] = w[r] / sum * dn;
  });

  // Vose's pairing, in the order of its two stacks but without them. Vose
  // pushes every slot in rank order onto the small stack (scaled weight
  // below 1) or the large one, and pops both from the top; a large slot
  // drained below 1 moves to the top of the small stack and is popped
  // next. So the small stack is always the unpaired small slots in rank
  // order with at most one drained large slot (`pending`) on top, and the
  // large stack's top is the highest-ranked large slot not yet drained.
  // Two downward cursors walk them: the next small slot is the next rank
  // down that is still its own alias with a weight below 1, the next
  // large slot the next rank down with a weight of at least 1. A small
  // slot's weight is final once it is paired, so it is already its
  // acceptance probability.
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  const auto next_small = [w, alias](std::uint64_t r) {
    while (r-- > 0)
      if (alias[r] == r && w[r] < 1.0) return r;
    return kNone;
  };
  const auto next_large = [w](std::uint64_t r) {
    while (r-- > 0)
      if (w[r] >= 1.0) return r;
    return kNone;
  };
  std::uint64_t small = n;  // the small cursor: candidates lie below it
  std::uint64_t pending = kNone;
  for (std::uint64_t large = next_large(n); large != kNone;) {
    std::uint64_t s_slot = pending;
    pending = kNone;
    if (s_slot == kNone) {
      small = next_small(small);
      if (small == kNone) break;
      s_slot = small;
    }
    alias[s_slot] = static_cast<std::uint32_t>(large);
    w[large] -= 1.0 - w[s_slot];
    if (w[large] < 1.0) {
      pending = large;
      large = next_large(large);
    }
  }
  // Whatever is still its own alias was left on a stack: (numerically)
  // exactly probability 1.
  for (std::uint64_t r = 0; r < n; ++r)
    if (alias[r] == r) w[r] = 1.0;
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

// semperm/common/zipf.hpp
//
// Shared heavy-tail sampling for the traffic subsystem and any workload
// that wants a skew knob (DESIGN.md §13.1).
//
// Destination references in real networks are strongly skewed — a small
// number of flows receives most of the traffic ("Characteristics of
// Destination Address Locality in Computer Networks", PAPERS.md) — so the
// internet-scale scenarios sample flow *ranks* from a bounded Zipf
// distribution: P(rank r) ∝ 1/(r+1)^s over a finite support.
//
// One rejection-free backend: a Vose alias table, O(1) and two Rng draws
// per sample. The table is built in its own storage (12 bytes per rank,
// at the build's peak too) with the elementwise passes split across a few
// threads; every entry is bit-identical to a single-threaded build. The inverse-CDF sampler the property tests validate it against
// lives in tests/reference_zipf.hpp.
//
// Lives in common/ (not traffic/) because workloads/ also uses it; the
// namespace stays `traffic` — it is the traffic model's distribution.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "common/rng.hpp"

namespace semperm::traffic {

/// std::allocator whose value-less construct() default-initializes, so
/// resize() leaves numbers unwritten: the build's threads write every
/// entry first and take its page faults in parallel.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;  // no value: left unwritten
  }
};

/// Vose alias table over P(rank r) ∝ 1/(r+1)^s: draw a slot uniformly,
/// keep it with probability accept[slot], otherwise take alias[slot].
struct ZipfAliasTable {
  double norm = 0.0;  // generalized harmonic number H(n, s)
  // Acceptance probability and alias target per slot.
  std::vector<double, DefaultInitAllocator<double>> accept;
  std::vector<std::uint32_t, DefaultInitAllocator<std::uint32_t>> alias;
};

/// Build the alias table for `support` ranks at skew `s` — what
/// ZipfSampler's constructor runs. The weights are written into `accept`
/// and scaled there, and Vose's pairing walks the table with two cursors
/// instead of his two stacks, so nothing but `accept` and `alias` is
/// allocated. The std::pow pass and the scaling run in contiguous chunks
/// on up to four threads (at most one chunk per 2^16 ranks); the sum and
/// the pairing are sequential, so the result does not depend on the
/// chunk count.
ZipfAliasTable build_zipf_alias_table(std::uint64_t support, double s);

/// Bounded Zipf(s) sampler over ranks {0, ..., support-1}, rank 0 most
/// popular. s = 0 degenerates to the uniform distribution. Construction
/// is O(support) time and 12 bytes per rank of memory, building
/// included; sampling allocates nothing.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t support, double s);

  /// Draw a rank via the alias table: O(1), rejection-free.
  std::uint64_t operator()(Rng& rng) const {
    const std::uint64_t slot = rng.below(n_);
    const double u = rng.uniform();
    return u < table_.accept[slot] ? slot : table_.alias[slot];
  }

  /// Analytic P(rank).
  double pmf(std::uint64_t rank) const;

  std::uint64_t support() const { return n_; }
  double skew() const { return s_; }

 private:
  std::uint64_t n_;
  double s_;
  ZipfAliasTable table_;
};

/// Deterministic bijection over {0, ..., n-1}: rank → identity. Zipf ranks
/// are dense at zero, which would cluster every hot flow in adjacent cache
/// sets and hand the prefetchers an artificial gift; mixing through an
/// affine permutation (multiplier coprime to n) scatters the hot set
/// across the identity space the way real 5-tuples scatter across a hash
/// table, while staying seed-reproducible.
struct RankMixer {
  std::uint64_t a = 1;  // coprime to n
  std::uint64_t b = 0;
  std::uint64_t n = 1;

  /// `rank` must be below n.
  std::uint64_t operator()(std::uint64_t rank) const {
    // rank, a, b < n <= 2^32 (make() checks the bound; at n = 1, a = 1
    // but rank = 0), so rank * a + b <= n(n-1) < 2^64: 64-bit arithmetic
    // is exact.
    return (rank * a + b) % n;
  }

  static RankMixer make(std::uint64_t n, std::uint64_t seed);
};

}  // namespace semperm::traffic

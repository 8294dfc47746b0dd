// tests/reference_zipf.hpp
//
// The original ZipfSampler, retained (renamed ReferenceZipf, members
// public) as the oracle for the in-place, threaded alias-table build in
// src/common/zipf.cpp. It keeps the inverse-CDF backend the sampler no
// longer needs: tests/test_zipf.cpp checks the CDF against the analytic
// pmf, samples it against the alias table, and requires the production
// table to equal this one entry for entry. Do not "optimise" this file:
// its value is being the old implementation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace semperm::traffic::testing {

class ReferenceZipf {
 public:
  ReferenceZipf(std::uint64_t support, double s) : n_(support), s_(s) {
    SEMPERM_ASSERT_MSG(support > 0, "Zipf support must be non-empty");
    SEMPERM_ASSERT_MSG(support <= (std::uint64_t{1} << 32),
                       "alias table indexes ranks with 32 bits");
    SEMPERM_ASSERT_MSG(s >= 0.0, "negative skew is not a Zipf distribution");

    std::vector<double> weight(n_);
    double sum = 0.0;
    for (std::uint64_t r = 0; r < n_; ++r) {
      weight[r] = s_ == 0.0 ? 1.0 : std::pow(static_cast<double>(r + 1), -s_);
      sum += weight[r];
    }
    norm_ = sum;

    cdf_.resize(n_);
    double acc = 0.0;
    for (std::uint64_t r = 0; r < n_; ++r) {
      acc += weight[r];
      cdf_[r] = acc / sum;
    }
    cdf_[n_ - 1] = 1.0;  // pin the top against rounding

    // Vose's alias method: scale each probability by n, then pair every
    // deficient ("small") slot with a donor ("large") slot.
    accept_.assign(n_, 1.0);
    alias_.resize(n_);
    std::vector<std::uint32_t> small;
    std::vector<std::uint32_t> large;
    std::vector<double> scaled(n_);
    for (std::uint64_t r = 0; r < n_; ++r) {
      scaled[r] = weight[r] / sum * static_cast<double>(n_);
      alias_[r] = static_cast<std::uint32_t>(r);
      auto& stack = scaled[r] < 1.0 ? small : large;
      stack.push_back(static_cast<std::uint32_t>(r));
    }
    while (!small.empty() && !large.empty()) {
      const std::uint32_t s_slot = small.back();
      small.pop_back();
      const std::uint32_t l_slot = large.back();
      accept_[s_slot] = scaled[s_slot];
      alias_[s_slot] = l_slot;
      scaled[l_slot] -= 1.0 - scaled[s_slot];
      if (scaled[l_slot] < 1.0) {
        large.pop_back();
        small.push_back(l_slot);
      }
    }
    // Leftovers in either list hold (numerically) exactly probability 1.
    for (const std::uint32_t r : small) accept_[r] = 1.0;
    for (const std::uint32_t r : large) accept_[r] = 1.0;
  }

  /// Draw a rank via the alias table.
  std::uint64_t operator()(Rng& rng) const {
    const std::uint64_t slot = rng.below(n_);
    const double u = rng.uniform();
    return u < accept_[slot] ? slot : alias_[slot];
  }

  /// Draw a rank by inverting the CDF: O(log n). Consumes the same two
  /// Rng draws per sample as the alias path (slot + coin).
  std::uint64_t sample_cdf(Rng& rng) const {
    (void)rng.below(n_);
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? n_ - 1
                            : static_cast<std::uint64_t>(it - cdf_.begin());
  }

  double pmf(std::uint64_t rank) const {
    SEMPERM_ASSERT(rank < n_);
    const double w =
        s_ == 0.0 ? 1.0 : std::pow(static_cast<double>(rank + 1), -s_);
    return w / norm_;
  }

  /// P(X <= rank).
  double cdf(std::uint64_t rank) const { return cdf_[rank]; }

  std::uint64_t n_;
  double s_;
  double norm_;                       // generalized harmonic number H(n, s)
  std::vector<double> cdf_;           // cdf_[r] = P(X <= r)
  std::vector<double> accept_;        // alias acceptance probability per slot
  std::vector<std::uint32_t> alias_;  // alias target per slot
};

}  // namespace semperm::traffic::testing

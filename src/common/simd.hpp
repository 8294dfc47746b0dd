// semperm/common/simd.hpp
//
// The portable packed-lane probe over a cache set's way words (DESIGN.md
// §15). The cache hot path asks one question per set:
//
//   meta_match_mask : per-way bitmask of (meta[i] & meta_mask) == meta_want
//                     (find_way's line + live-epoch key, whose lowest set
//                     bit is the hit; and the live-way census and
//                     partition-class scans of fill_line — popcount,
//                     countr_one and bit_width of the mask replace the
//                     scalar bookkeeping loop)
//
// It is defined over unaligned 64-bit lanes so the way words need no
// alignment. A backend is chosen once at compile time, from what the
// target offers:
//
//   AVX2    4 lanes/op   x86-64 with -mavx2 (or -march=native on most
//                        post-2013 parts)
//   SSE2    2 lanes/op   baseline x86-64 (always available; uses the
//                        pcmpeqq instruction when SSE4.1 is visible,
//                        otherwise emulates 64-bit lane equality with
//                        pcmpeqd + a lane-swapped AND)
//   NEON    2 lanes/op   aarch64
//   scalar  1 lane/op    everything else
//
// backend() returns the chosen name at runtime so bench reports can prove
// which path was measured. meta_match_mask_scalar is always compiled — it
// is the oracle for the scalar-vs-SIMD equivalence test.
//
// A stale-epoch hole may still hold the probed line, even beside the live
// way that holds it (DESIGN.md §15.1), so the epoch field is part of the
// probe's key, not a post-filter.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#define SEMPERM_SIMD_BACKEND_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64)
#define SEMPERM_SIMD_BACKEND_SSE2 1
#include <emmintrin.h>
#if defined(__SSE4_1__)
#include <smmintrin.h>
#endif
#elif defined(__ARM_NEON)
#define SEMPERM_SIMD_BACKEND_NEON 1
#include <arm_neon.h>
#else
#define SEMPERM_SIMD_BACKEND_SCALAR 1
#endif

namespace semperm::simd {

/// Name of the compiled-in backend, for bench reports and CI assertions.
constexpr const char* backend() {
#if defined(SEMPERM_SIMD_BACKEND_AVX2)
  return "avx2";
#elif defined(SEMPERM_SIMD_BACKEND_SSE2)
#if defined(__SSE4_1__)
  return "sse4.1";
#else
  return "sse2";
#endif
#elif defined(SEMPERM_SIMD_BACKEND_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

/// True when backend() is a packed-lane implementation (anything but the
/// scalar fallback).
constexpr bool vectorized() {
#if defined(SEMPERM_SIMD_BACKEND_SCALAR)
  return false;
#else
  return true;
#endif
}

// ---------------------------------------------------------------------------
// Scalar oracle — always compiled, independent of the selected backend.

inline std::uint64_t meta_match_mask_scalar(const std::uint64_t* meta,
                                            std::size_t n,
                                            std::uint64_t meta_mask,
                                            std::uint64_t meta_want) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < n; ++i)
    out |= std::uint64_t{(meta[i] & meta_mask) == meta_want} << i;
  return out;
}

// ---------------------------------------------------------------------------
// Backend implementations. Each produces bit-identical results to the
// scalar oracle for any n <= 64 (the associativity ceiling: way masks are
// carried in a single uint64_t).

#if defined(SEMPERM_SIMD_BACKEND_AVX2)

inline std::uint64_t meta_match_mask(const std::uint64_t* meta, std::size_t n,
                                     std::uint64_t meta_mask,
                                     std::uint64_t meta_want) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(meta_mask));
  const __m256i vwant = _mm256_set1_epi64x(static_cast<long long>(meta_want));
  std::uint64_t out = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i m =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(meta + i));
    const __m256i hit =
        _mm256_cmpeq_epi64(_mm256_and_si256(m, vmask), vwant);
    out |= static_cast<std::uint64_t>(static_cast<unsigned>(
               _mm256_movemask_pd(_mm256_castsi256_pd(hit))))
           << i;
  }
  for (; i < n; ++i)
    out |= std::uint64_t{(meta[i] & meta_mask) == meta_want} << i;
  return out;
}

#elif defined(SEMPERM_SIMD_BACKEND_SSE2)

namespace detail {
/// 64-bit lane equality on baseline SSE2. pcmpeqq is SSE4.1; without it,
/// compare 32-bit halves and AND each half with its lane sibling (shuffle
/// pattern 2,3,0,1 swaps the halves within each 64-bit lane), so a lane is
/// all-ones iff both halves matched.
inline __m128i cmpeq64(__m128i a, __m128i b) {
#if defined(__SSE4_1__)
  return _mm_cmpeq_epi64(a, b);
#else
  const __m128i half = _mm_cmpeq_epi32(a, b);
  return _mm_and_si128(half, _mm_shuffle_epi32(half, _MM_SHUFFLE(2, 3, 0, 1)));
#endif
}
}  // namespace detail

inline std::uint64_t meta_match_mask(const std::uint64_t* meta, std::size_t n,
                                     std::uint64_t meta_mask,
                                     std::uint64_t meta_want) {
  const __m128i vmask = _mm_set1_epi64x(static_cast<long long>(meta_mask));
  const __m128i vwant = _mm_set1_epi64x(static_cast<long long>(meta_want));
  std::uint64_t out = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i m =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(meta + i));
    const __m128i hit = detail::cmpeq64(_mm_and_si128(m, vmask), vwant);
    out |= static_cast<std::uint64_t>(static_cast<unsigned>(
               _mm_movemask_pd(_mm_castsi128_pd(hit))))
           << i;
  }
  if (i < n)
    out |= std::uint64_t{(meta[i] & meta_mask) == meta_want} << i;
  return out;
}

#elif defined(SEMPERM_SIMD_BACKEND_NEON)

inline std::uint64_t meta_match_mask(const std::uint64_t* meta, std::size_t n,
                                     std::uint64_t meta_mask,
                                     std::uint64_t meta_want) {
  const uint64x2_t vmask = vdupq_n_u64(meta_mask);
  const uint64x2_t vwant = vdupq_n_u64(meta_want);
  std::uint64_t out = 0;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t hit =
        vceqq_u64(vandq_u64(vld1q_u64(meta + i), vmask), vwant);
    out |= (vgetq_lane_u64(hit, 0) & 1u) << i;
    out |= (vgetq_lane_u64(hit, 1) & 1u) << (i + 1);
  }
  if (i < n)
    out |= std::uint64_t{(meta[i] & meta_mask) == meta_want} << i;
  return out;
}

#else  // scalar fallback

inline std::uint64_t meta_match_mask(const std::uint64_t* meta, std::size_t n,
                                     std::uint64_t meta_mask,
                                     std::uint64_t meta_want) {
  return meta_match_mask_scalar(meta, n, meta_mask, meta_want);
}

#endif

/// First index i with vals[i] == val, else n: the lowest lane of the
/// full-word match mask. Used for small exact-match tables that are not
/// epoch-tagged, e.g. the stream prefetcher's page table.
inline std::size_t find_u64(const std::uint64_t* vals, std::size_t n,
                            std::uint64_t val) {
  const auto first = static_cast<std::size_t>(
      std::countr_zero(meta_match_mask(vals, n, ~std::uint64_t{0}, val)));
  return first < n ? first : n;
}

}  // namespace semperm::simd

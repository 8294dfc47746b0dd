// semperm/cachesim/prefetch.hpp
//
// Hardware prefetcher models for the units the paper's §4.2 analysis relies
// on. Intel client/server cores of the studied generations (Nehalem, Sandy
// Bridge, Broadwell) carry four prefetchers; we model the three that matter
// for match-list traversal:
//
//  * L1 DCU next-line prefetcher  — on an L1 access, fetch line+1 into L1.
//  * L2 "spatial" adjacent-pair   — on an L2 miss, fetch the other line of
//    the aligned 128-byte pair into L2. This is the unit the paper credits
//    for the "8 entries per array" performance knee.
//  * L2 streamer                  — detects runs of ascending line accesses
//    within a 4 KiB page and prefetches up to `degree` lines ahead.
//
// Prefetchers suggest lines; the Hierarchy performs the fills and tracks
// coverage statistics. Each unit's observe(obs, emit) hands every request
// to the caller's `emit(const PrefetchRequest&)` as it makes it, so the
// fill runs at once and no request list is built. A unit reads only the
// observation and its own state, and no fill touches a unit's state, so
// the fills run in the order a collect-then-fill loop would run them.
#pragma once

#include <cstdint>
#include <vector>

#include "common/simd.hpp"
#include "common/types.hpp"

namespace semperm::cachesim {

/// Prefetch units work within 4 KiB pages: 64 lines.
inline constexpr Addr kLinesPerPage = 4096 / kCacheLine;
constexpr Addr page_of_line(Addr line) { return line / kLinesPerPage; }

/// A prefetch suggestion: which line, into which level (0 = L1, 1 = L2...).
struct PrefetchRequest {
  Addr line;
  unsigned target_level;
};

/// Observation handed to prefetch units after each demand line access.
struct AccessObservation {
  Addr line;
  bool l1_hit;
  bool l2_hit;  // meaningful only when !l1_hit
};

/// L1 DCU next-line unit.
class NextLinePrefetcher {
 public:
  template <class Emit>
  void observe(const AccessObservation& obs, Emit&& emit) const {
    // The DCU unit is conservative: it fetches the next line within the
    // same page. It fires on every access (hit or miss) — sequential hits
    // keep the line ahead of the consumer.
    const Addr next = obs.line + 1;
    if (page_of_line(next) == page_of_line(obs.line))
      emit(PrefetchRequest{next, /*target_level=*/0});
  }
};

/// L2 adjacent-pair ("spatial") unit: completes the 128-byte aligned pair.
class AdjacentPairPrefetcher {
 public:
  template <class Emit>
  void observe(const AccessObservation& obs, Emit&& emit) const {
    // Fires on L2 misses only: completes the aligned 128-byte pair.
    if (obs.l1_hit || obs.l2_hit) return;
    emit(PrefetchRequest{obs.line ^ 1, /*target_level=*/1});
  }
};

/// L2 streamer: per-4KiB-page ascending-run detector.
///
/// Once a stream is armed the unit keeps a per-stream issue pointer (the
/// highest line it has already requested) and emits only lines beyond it,
/// the way a hardware streamer advances its prefetch pointer with the
/// stream — it does not re-request the window it already sent. A
/// direction break re-arms the stream and clears the pointer, so the
/// fresh run prefetches its full window again.
class StreamPrefetcher {
 public:
  /// `trigger` = run length that arms the stream; `degree` = lines fetched
  /// ahead once armed; `table_size` = number of concurrent streams tracked.
  StreamPrefetcher(unsigned trigger, unsigned degree, std::size_t table_size = 16);

  template <class Emit>
  void observe(const AccessObservation& obs, Emit&& emit) {
    const Addr page = page_of_line(obs.line);
    // Packed probe over the page-tag array; first-match index, same slot
    // the old struct scan would have stopped at.
    const std::size_t i = simd::find_u64(pages_.data(), pages_.size(), page);
    if (i == pages_.size()) {
      allocate(obs.line);
      return;
    }
    Stream& match = table_[i];
    touch(i);
    if (obs.line == match.last_line) return;  // same line again: no signal
    if (obs.line == match.last_line + 1) {
      match.run += 1;
    } else if (obs.line > match.last_line && obs.line - match.last_line <= 2) {
      // Small forward skips keep the stream alive but do not extend the run.
    } else {
      match.run = 1;         // direction break: re-arm
      match.next_issue = 0;  // the fresh run gets its full window again
    }
    match.last_line = obs.line;
    if (match.run >= trigger_) {
      // Issue only lines the run has not requested yet: from the issue
      // pointer (or the line after the access, whichever is further) up to
      // `degree` ahead, clipped at the page edge.
      Addr ahead = obs.line + 1;
      if (match.next_issue > ahead) ahead = match.next_issue;
      const Addr limit = obs.line + degree_;
      for (; ahead <= limit; ++ahead) {
        if (page_of_line(ahead) != page) break;  // stops at the page edge
        emit(PrefetchRequest{ahead, /*target_level=*/1});
      }
      match.next_issue = ahead;
    }
  }

  void reset();

  /// Same streams in the same recency order (Hierarchy's clean-batch test).
  bool operator==(const StreamPrefetcher&) const = default;

 private:
  struct Stream {
    Addr last_line = 0;
    Addr next_issue = 0;  // first line not yet requested for this run
    unsigned run = 0;
    bool operator==(const Stream&) const = default;
  };

  /// Move slot `s` to the most-recently-used end of the packed order.
  void touch(std::size_t s);
  /// Start a stream at `line` over the least-recently-used slot.
  void allocate(Addr line);

  unsigned trigger_;
  unsigned degree_;
  // Page tags live in their own contiguous array (SoA) so the per-access
  // lookup is one packed simd::find_u64 probe instead of a struct-strided
  // scan; the cold per-stream state stays in table_[i]. ~Addr{0} marks a
  // free slot (no real 4 KiB page maps there).
  //
  // Recency is a packed permutation instead of per-slot lru ticks: order_
  // holds one 4-bit slot id per nibble, LRU at nibble 0 and MRU at nibble
  // size-1 (hence table_size <= 16). The victim is `order_ & 0xF` and a
  // touch is a constant-time nibble rotation — the miss path (every
  // observation of irregular traffic) never scans the table for a
  // minimum. Untouched slots keep their initial ascending order at the
  // LRU end, which reproduces the old scan's first-smallest-index
  // tie-break exactly.
  std::vector<Addr> pages_;
  std::vector<Stream> table_;
  std::uint64_t order_ = 0;
};

}  // namespace semperm::cachesim

// semperm/cachesim/cache.hpp
//
// A single set-associative cache level with true-LRU replacement.
//
// The simulator is trace-driven: callers present cache-line indices and the
// cache answers hit/miss, tracking which resident lines arrived via
// prefetch so the hierarchy can attribute "prefetch covered this demand
// access" statistics (the mechanism behind the paper's Fig. 4/5 analysis).
//
// Storage is flat (DESIGN.md §10): one block per cache holds, for each
// set, `assoc` 64-bit words — one per way, packing the line, its fill
// epoch and its flags — and after the last set one "grown" bit per set.
// Each set is kept in LRU order (way 0 = MRU) by rotating those words, so
// the per-access cost is one masked compare per way over one contiguous
// array plus at most one short rotation — no per-access allocation, no
// erase_if.
//
// Whole-cache operations cost only what changed since the last one:
//  * flush() is O(1): a running count of live dirty ways pays its
//    writebacks, and an epoch bump retires every way. Ways from flushed
//    epochs are holes to every scan (the single `way_live` predicate) and
//    later fills reclaim them lazily.
//  * pollute() trims only the sets marked grown since the last pollute
//    whenever a bound on every unmarked set proves the others lose nothing.
//  * a destroyed cache hands its block and epoch to a pool; the next cache
//    of the same geometry starts one epoch later, so every recycled way is
//    already a hole and only the grown bits need clearing.
// The epoch field is 12 bits wide: once per 4095 epochs the bump instead
// stamps every way stale and restarts at epoch 0.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "check/audit.hpp"
#include "common/assert.hpp"
#include "common/hot_path.hpp"
#include "common/simd.hpp"
#include "common/types.hpp"
#include "obs/owner.hpp"
#include "obs/trace.hpp"

namespace semperm::cachesim {

/// Why a line was inserted — used for prefetch-coverage accounting.
enum class FillReason : std::uint8_t {
  kDemand,    // demand miss fill
  kPrefetch,  // hardware prefetcher fill
  kHeater,    // hot-caching refresh touch
};

/// Traffic class of a line, for the paper's §6 proposal of
/// hardware-supported locality: "network" lines (match-queue state) can be
/// granted a reserved way partition that ordinary traffic cannot displace.
enum class LineClass : std::uint8_t {
  kNormal,
  kNetwork,
};

/// Per-level counters.
struct CacheStats {
  std::uint64_t demand_hits = 0;
  std::uint64_t demand_misses = 0;
  std::uint64_t prefetch_fills = 0;
  std::uint64_t prefetch_hits = 0;  // demand hits on prefetch-filled lines
  std::uint64_t heater_fills = 0;
  std::uint64_t heater_hits = 0;  // demand hits on heater-filled lines
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;  // dirty lines displaced (evict/pollute/flush)

  bool operator==(const CacheStats&) const = default;

  double hit_rate() const {
    const double total =
        static_cast<double>(demand_hits) + static_cast<double>(demand_misses);
    return total > 0 ? static_cast<double>(demand_hits) / total : 0.0;
  }
};

/// Magic constant for fastmod64: ceil(2^128 / d), d > 1 and not a power of
/// two (power-of-two divisors take the mask path instead).
inline unsigned __int128 fastmod_magic(std::uint64_t d) {
  return ~static_cast<unsigned __int128>(0) / d + 1;
}

/// Exact n % d without a divide (Lemire, Kaser & Kurz, "Faster remainder by
/// direct computation", 2019): with M = ceil(2^128 / d), the remainder is
/// the high 64 bits of (M * n mod 2^128) * d. Bit-identical to `n % d` for
/// every 64-bit n, so sliced non-power-of-two LLCs keep the exact set
/// mapping (and therefore the exact simulated statistics) of the modulo
/// implementation it replaces.
inline std::uint64_t fastmod64(std::uint64_t n, std::uint64_t d,
                               unsigned __int128 M) {
  const unsigned __int128 lowbits = M * n;
  const unsigned __int128 top =
      static_cast<unsigned __int128>(static_cast<std::uint64_t>(lowbits >> 64)) *
      d;
  const unsigned __int128 bottom =
      static_cast<unsigned __int128>(static_cast<std::uint64_t>(lowbits)) * d;
  return static_cast<std::uint64_t>((top + (bottom >> 64)) >> 64);
}

class SetAssocCache {
 public:
  /// `size_bytes` total capacity, `assoc` ways. size must be a multiple of
  /// assoc * 64; any set count (power-of-two or sliced) is accepted. The
  /// cache starts empty, on recycled storage when a cache of the same
  /// geometry was destroyed earlier.
  SetAssocCache(std::string name, std::size_t size_bytes, unsigned assoc);
  /// Hands the storage block to the pool of its geometry.
  ~SetAssocCache();
  // Containers relocate caches (Hierarchy::levels_): moves carry the block;
  // a move-assigned cache frees its old block instead of pooling it.
  SetAssocCache(SetAssocCache&&) noexcept = default;
  SetAssocCache& operator=(SetAssocCache&&) noexcept = default;
  SetAssocCache(const SetAssocCache&) = delete;
  SetAssocCache& operator=(const SetAssocCache&) = delete;

  /// Demand access to `line` (a cache-line index, not a byte address).
  /// Every line a cache is handed must be below 2^44 (a byte address below
  /// 2^50); a larger one throws. Returns true on hit. On hit the line
  /// becomes most-recently-used and prefetch/heater coverage is recorded.
  /// Defined inline: this is the hot path, and keeping it visible lets the
  /// hierarchy's streaming loop collapse it into straight-line code.
  SEMPERM_HOT bool access(Addr line) {
    std::size_t set;
    return access(line, set);
  }

  /// access() that also reports the set it walked, so that a miss can hand
  /// it to fill_missed() and the demand fill does not walk it again.
  SEMPERM_HOT bool access(Addr line, std::size_t& set) {
    const std::size_t s = set = set_index(line);
    Word* words = set_words(s);
    SEMPERM_AUDIT_ONLY(++audit_accesses_;)
    const std::size_t i = find_way(words, line);
    if (i == assoc_) {
      ++stats_.demand_misses;
      SEMPERM_AUDIT_ONLY(audit_stats();)
      return false;
    }
    ++stats_.demand_hits;
    Word w = words[i];
    const FillReason r = reason_of(w);
    if (r != FillReason::kDemand) {
      if (r == FillReason::kPrefetch)
        ++stats_.prefetch_hits;
      else
        ++stats_.heater_hits;
      w &= ~kReasonMask;  // count first use only: re-mark kDemand
    }
    move_to_front(words, i, w);
    SEMPERM_AUDIT_ONLY(audit_set(s); audit_stats();)
    return true;
  }

  /// Probe without updating LRU or statistics.
  bool contains(Addr line) const {
    return find_way(set_words(set_index(line)), line) < assoc_;
  }

  /// An eviction produced by fill_line: which line left, and whether it was
  /// dirty (the caller owns the resulting writeback, e.g. to the next level).
  struct EvictedWay {
    Addr line;
    bool dirty;
  };

  /// Insert `line` (after a miss at this level, or as prefetch/heater fill).
  /// Returns the evicted line, if any. Inserting an already-resident line
  /// just refreshes its LRU position (and reason, if heater).
  /// With a way partition configured, `cls` selects the class the line
  /// competes in: each class evicts only its own LRU line once its way
  /// quota is full.
  std::optional<Addr> fill(Addr line, FillReason reason,
                           LineClass cls = LineClass::kNormal);

  /// Like fill(), but reports the evicted way's dirty bit and can insert the
  /// line already dirty. A dirty eviction bumps the writeback counter.
  std::optional<EvictedWay> fill_line(Addr line, FillReason reason,
                                      LineClass cls = LineClass::kNormal,
                                      bool dirty = false);

  /// contains() + fill() fused into one set probe: returns true if the
  /// line was already resident before the (LRU-refreshing) fill.
  /// Statistics are identical to the unfused pair; heater streams use this
  /// to count cold lines without probing the set twice.
  bool touch_fill(Addr line, FillReason reason,
                  LineClass cls = LineClass::kNormal);

  /// fill_line() of a line whose demand access() just missed in `set`:
  /// inserts without walking the set for the line again. The hole comes
  /// from the ways live now, so the set may have lost lines since the miss
  /// (a coherent back-invalidation); it must not have gained `line`, which
  /// AUDIT builds check.
  std::optional<EvictedWay> fill_missed(std::size_t set, Addr line,
                                        FillReason reason,
                                        LineClass cls = LineClass::kNormal,
                                        bool dirty = false);

  /// Result of fill_line_if_absent: whether a fill happened, and the
  /// evicted way if it displaced one.
  struct FillOutcome {
    bool filled = false;
    std::optional<EvictedWay> evicted;
  };

  /// fill_line() that is a strict no-op when the line is already resident —
  /// no LRU refresh, no reason re-mark, no statistics. This is the
  /// `contains() ? skip : fill()` prefetch idiom fused into a single set
  /// walk; the observable state is identical to the unfused pair.
  FillOutcome fill_line_if_absent(Addr line, FillReason reason,
                                  LineClass cls = LineClass::kNormal,
                                  bool dirty = false);

  /// Set the dirty bit of a resident line (a write-back cache records the
  /// store; the data moves only on displacement). Returns false if absent.
  bool mark_dirty(Addr line);

  /// Is `line` resident and dirty?
  bool line_dirty(Addr line) const;

  /// Reserve `reserved_ways` of every set for kNetwork lines (the paper's
  /// posited "cache partition"). 0 disables partitioning. Must be less
  /// than the associativity.
  void set_partition(unsigned reserved_ways);
  unsigned reserved_ways() const { return reserved_ways_; }

  /// Drop a specific line if present.
  void invalidate(Addr line);

  /// Drop everything (the paper's modified micro-benchmarks clear the cache
  /// between iterations to emulate a compute phase, §4.1). O(1): the
  /// running dirty-way count becomes writebacks and the epoch bump turns
  /// every way into a hole that later fills reclaim. One flush in 4095
  /// wraps the epoch and stamps every way stale.
  void flush();

  /// Model a compute phase streaming `bytes` of unrelated data through the
  /// cache: evicts the LRU-most ways of every set that the stream would
  /// displace, keeping the MRU remainder. A working set >= the cache size
  /// degenerates to flush(). This is what lets a large LLC retain match
  /// state across compute phases ("semi-permanent occupancy") while a
  /// smaller one loses it. Exact and eager, but it visits only the sets
  /// that gained a normal line since the last pollute whenever the bound
  /// on the others proves they keep everything; otherwise every set.
  void pollute(std::size_t bytes);

  const CacheStats& stats() const { return stats_; }
  void reset_stats();

  /// Count `n` demand hits that a replayed batch charged without probing:
  /// the hits its recorded run counted here (Hierarchy, DESIGN.md §10.3).
  void count_replayed_hits(std::uint64_t n) {
    stats_.demand_hits += n;
    SEMPERM_AUDIT_ONLY(audit_accesses_ += n;)
  }

  /// Full structural + accounting audit (see DESIGN.md § Invariant audits):
  /// every set is a valid LRU stack (distinct live lines, correctly
  /// indexed, within associativity and partition quotas) and the counters
  /// obey their conservation laws (hits + misses == accesses, evictions
  /// bounded by fills, writebacks bounded by dirty transitions,
  /// prefetch/heater coverage bounded by fills, all counters monotone).
  /// Throws semperm::check::AuditError. No-op unless SEMPERM_AUDIT. The
  /// per-access hooks audit only the touched set (O(assoc)); this walks
  /// everything.
  void audit() const;

#if SEMPERM_AUDIT
  /// Test seam: duplicate the MRU way of `line`'s set so the LRU stack is
  /// no longer a permutation; the next audit of that set must throw.
  void audit_corrupt_lru_for_test(Addr line);
  /// Test seam: clear the grown bit of `line`'s set, as if a fill had
  /// forgotten to mark it; the next audit of that set must throw.
  void audit_clear_grown_for_test(Addr line);
#endif

  const std::string& name() const { return name_; }
  std::size_t size_bytes() const { return size_bytes_; }
  unsigned associativity() const { return assoc_; }
  std::size_t set_count() const { return set_count_; }

  /// Set index of `line`: a mask for power-of-two set counts, Lemire
  /// fastmod (exact `line % set_count`, no divide) for sliced LLCs.
  std::size_t set_index(Addr line) const {
    return fastmod_magic_ == 0
               ? static_cast<std::size_t>(line & set_mask_)
               : static_cast<std::size_t>(
                     fastmod64(line, set_count_, fastmod_magic_));
  }

  /// Number of currently valid lines (for occupancy reporting).
  std::size_t resident_lines() const;

  /// Valid lines whose most recent provider was `reason` (a demand hit on a
  /// prefetched/heated line re-marks it kDemand, so this counts lines still
  /// "owned" by that provider — the heater-vs-app occupancy split).
  std::size_t resident_lines_filled_by(FillReason reason) const;

#if SEMPERM_TRACE
  /// Valid lines attributed to `owner` (DESIGN.md §16): an exact counter
  /// maintained on every fill, eviction, invalidation, flush and pollute,
  /// conservation-audited against a metadata recount under SEMPERM_AUDIT.
  /// Unlike resident_lines_filled_by, the owner records who *filled or
  /// refreshed* the line — demand hits do not transfer ownership.
  std::size_t resident_lines_owned_by(obs::OwnerId owner) const {
    return owner < obs::kMaxOwners ? owner_resident_[owner] : 0;
  }

  /// Prefix for this cache's occupancy counter tracks
  /// ("<prefix>/occ/<owner>", "<prefix>/occ_total"); defaults to the
  /// cache's name. Multi-core hierarchies set distinct prefixes so the
  /// summarizer can validate conservation per cache instance.
  void trace_set_occupancy_prefix(std::string prefix);

  /// Emit one counter sample per registered owner (zeros included, so
  /// each pass is a self-consistent snapshot even when sequential bench
  /// panels reuse one prefix) plus "<prefix>/occ_total" — an independent
  /// resident_lines() recount, which is exactly what the
  /// Σ-owners==resident conservation check in tools/trace_summarize.py
  /// compares against — at simulated timestamp `sim_ts`. No-op unless a
  /// trace session is recording.
  void trace_sample_owner_occupancy(std::uint64_t sim_ts = obs::kStampNow);
#endif

 private:
  // One word per way: [63:20] line index, [19:8] fill epoch, [7:4] owner
  // id, [3:2] FillReason, [1] LineClass, [0] dirty. A way is live iff its
  // epoch field equals the cache's current epoch; flush() bumps the
  // epoch, invalidate() stamps the never-current kStaleEpoch. One masked
  // compare tests a way's line and epoch together, so a stale way that
  // still holds the probed line never matches.
  //
  // The owner field (obs/owner.hpp) is written only in traced builds;
  // Release leaves it zero, and every probe mask leaves it out, so traced
  // and untraced builds make the same decisions. Riding inside the word
  // means attribution travels through the LRU rotation for free.
  using Word = std::uint64_t;
  static constexpr Word kDirtyBit = 1;
  static constexpr Word kNetworkBit = 2;
  static constexpr unsigned kReasonShift = 2;
  static constexpr Word kReasonMask = Word{3} << kReasonShift;
  static constexpr unsigned kOwnerShift = 4;
  static constexpr Word kOwnerMask = Word{obs::kMaxOwners - 1} << kOwnerShift;
  static constexpr unsigned kEpochShift = 8;
  static_assert((kOwnerMask >> kEpochShift) == 0, "owner field overlaps epoch");
  static constexpr unsigned kLineShift = 20;
  static constexpr std::uint64_t kStaleEpoch =
      (std::uint64_t{1} << (kLineShift - kEpochShift)) - 1;
  static constexpr Word kEpochMask = Word{kStaleEpoch} << kEpochShift;
  /// The line and epoch fields: what find_way compares.
  static constexpr Word kKeyMask = ~((Word{1} << kEpochShift) - 1);
  /// Every line must be below this: a larger one would lose its top bits
  /// and hit the way of another line.
  static constexpr Addr kLineLimit = Addr{1} << (64 - kLineShift);
  /// What invalidate(), pollute() and an epoch restart leave in a way.
  static constexpr Word kStaleWord = kEpochMask;

  static Word pack(Addr line, std::uint64_t epoch, FillReason reason,
                   LineClass cls, bool dirty) {
    return (line << kLineShift) | (epoch << kEpochShift) |
           (static_cast<Word>(reason) << kReasonShift) |
           (cls == LineClass::kNetwork ? kNetworkBit : 0) | (dirty ? 1 : 0);
  }
  static Addr line_of(Word w) { return w >> kLineShift; }
  static FillReason reason_of(Word w) {
    return static_cast<FillReason>((w & kReasonMask) >> kReasonShift);
  }
  static obs::OwnerId owner_of(Word w) {
    return static_cast<obs::OwnerId>((w & kOwnerMask) >> kOwnerShift);
  }
  static bool is_network(Word w) { return (w & kNetworkBit) != 0; }
  static bool is_dirty(Word w) { return (w & kDirtyBit) != 0; }

  /// THE validity predicate: every scan — access, contains, fills,
  /// footprint and coverage accounting — filters stale-epoch ways through
  /// this one test, so they all agree after flush()/reset().
  bool way_live(Word w) const { return (w & kEpochMask) == live_want(); }
  /// The epoch field of a live way.
  Word live_want() const { return epoch_ << kEpochShift; }

  /// Find the live way holding `line` in the set block, or assoc_ if the
  /// line is not resident. One packed scan over the set's words (simd.hpp;
  /// 2–4 ways per compare) matches line and epoch together; stale-epoch
  /// ways are filtered lazily right here in the probe (a stale hole may
  /// keep its leftover line), so no eager purge ever runs. The lowest
  /// matching way is the first match of the scalar loop.
  SEMPERM_HOT std::size_t find_way(const Word* words, Addr line) const {
    SEMPERM_ASSERT(line < kLineLimit);
    const Word key = line << kLineShift | live_want();
    // MRU fast path: most demand hits land on way 0 (the whole point of
    // move-to-front), and one scalar compare is cheaper than spinning up
    // the packed probe.
    if ((words[0] & kKeyMask) == key) return 0;
    const std::uint64_t hits =
        simd::meta_match_mask(words, assoc_, kKeyMask, key);
    return hits != 0 ? static_cast<std::size_t>(std::countr_zero(hits))
                     : assoc_;
  }

  /// Bitmask of live ways in the set block (bit i = way i live).
  std::uint64_t live_mask(const Word* words) const {
    return simd::meta_match_mask(words, assoc_, kEpochMask, live_want());
  }

  /// Bitmask of live ways belonging to `cls` (partition-class census:
  /// the class bit joins the epoch field in the mask, one packed scan).
  std::uint64_t class_mask(const Word* words, LineClass cls) const {
    return simd::meta_match_mask(
        words, assoc_, kEpochMask | kNetworkBit,
        live_want() | (cls == LineClass::kNetwork ? kNetworkBit : 0));
  }

  /// Rotate ways [0, i] of a set block right by one and write `w` at the
  /// MRU slot — the in-set move-to-front. i < assoc is small, so the
  /// inline backward copy beats a libc memmove call.
  static void move_to_front(Word* words, std::size_t i, Word w) {
    for (std::size_t j = i; j > 0; --j) words[j] = words[j - 1];
    words[0] = w;
  }

  /// The next epoch: every way of the last one becomes a hole. When that
  /// would be the never-current kStaleEpoch, restart at 0 instead.
  void bump_epoch();
  /// Stamp every way stale and make 0 the current epoch.
  void restart_epochs();

  /// fill_line() with one probe of the set; `resident` reports whether the
  /// line was live before the fill (touch_fill's answer).
  std::optional<EvictedWay> probe_fill(Addr line, FillReason reason,
                                       LineClass cls, bool dirty,
                                       bool& resident);

  /// Miss-path insertion shared by fill_line, fill_missed and
  /// fill_line_if_absent: counts the fill, picks the hole (stale way or
  /// evicted victim), moves the new line to the MRU slot. The caller has
  /// already established the line is absent from the set.
  std::optional<EvictedWay> fill_absent(std::size_t s, Word* words, Addr line,
                                        FillReason reason, LineClass cls,
                                        bool dirty);

  /// pollute()'s per-set displacement: drop the LRU-most normal lines the
  /// stream of `per_set` lines pushes past `normal_capacity`.
  void trim_set(std::size_t s, std::size_t per_set,
                std::size_t normal_capacity);

  Word* set_words(std::size_t set) { return block_.get() + set * assoc_; }
  const Word* set_words(std::size_t set) const {
    return block_.get() + set * assoc_;
  }

  /// Visit every way's word (the whole-cache recounts).
  template <class F>
  void for_each_word(F&& f) const {
    const Word* end = block_.get() + set_count_ * assoc_;
    for (const Word* w = block_.get(); w != end; ++w) f(*w);
  }

  /// Words of grown bits after the set blocks: one bit per set.
  std::size_t grown_words() const { return (set_count_ + 63) / 64; }
  void mark_grown(std::size_t s) {
    grown_[s / 64] |= std::uint64_t{1} << (s % 64);
  }
  bool is_grown(std::size_t s) const {
    return (grown_[s / 64] >> (s % 64)) & 1;
  }

#if SEMPERM_AUDIT
  /// Audit one set: O(assoc²) duplicate scan + quota checks over live ways,
  /// and the ungrown bound if the set is not marked grown.
  void audit_set(std::size_t set_idx) const;
  /// O(1) counter conservation + monotonicity checks.
  void audit_stats() const;
#endif

  std::string name_;
  std::size_t size_bytes_;
  unsigned assoc_;
  std::size_t set_count_;
  Addr set_mask_ = 0;                  // set_count - 1 when a power of two
  unsigned __int128 fastmod_magic_ = 0;  // nonzero selects the fastmod path
  std::uint64_t epoch_ = 0;
  unsigned reserved_ways_ = 0;
  // The storage block: set s holds its ways' words at [s * assoc, + assoc);
  // the grown bits follow the last set. Pooled by geometry when the cache
  // is destroyed (cache.cpp).
  std::unique_ptr<std::uint64_t[]> block_;
  // Bit s: set s gained a live normal line (a normal miss fill, or a
  // refill turning a network line normal) since the last pollute.
  std::uint64_t* grown_ = nullptr;
  // Every set whose grown bit is clear holds at most this many live
  // normal lines (the bound B of DESIGN.md §10.1).
  std::size_t ungrown_bound_ = 0;
  // Live dirty ways: exactly the writebacks a flush() owes.
  std::size_t dirty_ways_ = 0;
  CacheStats stats_;
  // Audit-only shadow counters (mutable: audits run from const context).
  // audit_accesses_ counts access() calls; audit_fill_calls_ counts
  // fill_line() calls; audit_dirty_marks_ counts clean→dirty transitions;
  // audit_heater_remarks_ counts resident lines re-marked kHeater without
  // a heater_fills increment. audit_prefetch_base_ / audit_heater_base_
  // hold the resident prefetch/heater line counts at the last stats reset
  // (lines that can still earn coverage hits with no post-reset fill).
  // audit_prev_stats_ anchors the monotonicity check.
  SEMPERM_AUDIT_ONLY(mutable std::uint64_t audit_accesses_ = 0;
                     mutable std::uint64_t audit_fill_calls_ = 0;
                     mutable std::uint64_t audit_dirty_marks_ = 0;
                     mutable std::uint64_t audit_heater_remarks_ = 0;
                     mutable std::uint64_t audit_prefetch_base_ = 0;
                     mutable std::uint64_t audit_heater_base_ = 0;
                     mutable CacheStats audit_prev_stats_;)
  // Trace-only: this cache's interned timeline-track id (its name_),
  // stamped onto fill/evict/writeback probe events.
  SEMPERM_TRACE_ONLY(std::uint16_t trace_track_ = 0;)
  // Trace-only residency attribution (DESIGN.md §16): exact per-owner
  // resident-line counters (owner_resident_[owner_of(w)] over live ways),
  // plus the lazily interned occupancy counter tracks. Maintained
  // unconditionally in traced builds — not gated on trace_on() — so a
  // session started mid-run still sees exact counters.
  SEMPERM_TRACE_ONLY(
      std::array<std::uint64_t, obs::kMaxOwners> owner_resident_{};
      std::string occ_prefix_;
      std::array<std::uint16_t, obs::kMaxOwners> occ_tracks_{};
      std::uint16_t occ_total_track_ = 0;)
};

}  // namespace semperm::cachesim

#include "cachesim/cache.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <memory>
#include <optional>
#include <vector>

#include "common/assert.hpp"
#include "common/mutex.hpp"

namespace semperm::cachesim {

namespace obs = semperm::obs;

namespace {

/// Words in the storage block of a `sets` x `assoc` cache: one word per
/// way, then one grown bit per set.
std::size_t block_words(std::size_t sets, unsigned assoc) {
  return sets * assoc + (sets + 63) / 64;
}

/// Storage blocks of destroyed caches, each taken by the next cache of the
/// same geometry (DESIGN.md §10.1). The key is set count *and*
/// associativity, which fix where each set and the grown bits sit. LIFO,
/// so the block most recently in use is reused first. At most
/// kMaxPooledWords are held; a block beyond that is freed.
class StoragePool {
 public:
  struct Block {
    std::size_t sets = 0;
    unsigned assoc = 0;
    std::uint64_t epoch = 0;  // the owner's epoch when it was destroyed
    std::unique_ptr<std::uint64_t[]> words;
  };

  std::optional<Block> take(std::size_t sets, unsigned assoc) {
    MutexLock lock(mu_);
    for (auto it = free_.rbegin(); it != free_.rend(); ++it) {
      if (it->sets != sets || it->assoc != assoc) continue;
      Block b = std::move(*it);
      free_.erase(std::next(it).base());
      pooled_words_ -= block_words(sets, assoc);
      return b;
    }
    return std::nullopt;
  }

  void give(Block b) {
    const std::size_t words = block_words(b.sets, b.assoc);
    MutexLock lock(mu_);
    if (pooled_words_ + words > kMaxPooledWords) return;  // freed with `b`
    pooled_words_ += words;
    free_.push_back(std::move(b));
  }

 private:
  // 64 MiB: room for the caches of a 64-core KNL model (8.6 MB) and a
  // Broadwell hierarchy (6 MB) at once, several times over.
  static constexpr std::size_t kMaxPooledWords = std::size_t{8} << 20;
  Mutex mu_;
  std::vector<Block> free_ GUARDED_BY(mu_);
  std::size_t pooled_words_ GUARDED_BY(mu_) = 0;
};

/// The pool outlives every cache: each constructor calls this before it
/// finishes, so the static is constructed first and destroyed last.
StoragePool& storage_pool() {
  static StoragePool pool;
  return pool;
}

}  // namespace

#if SEMPERM_TRACE
namespace {
/// Resolve the owner a fill is attributed to: an explicit thread-local
/// OwnerScope wins; otherwise the FillReason picks the well-known
/// prefetcher/heater owner; otherwise the default "workload".
obs::OwnerId fill_owner(FillReason reason) {
  const obs::OwnerId scoped = obs::current_owner();
  if (scoped != obs::kOwnerWorkload) return scoped;
  switch (reason) {
    case FillReason::kPrefetch:
      return obs::kOwnerPrefetcher;
    case FillReason::kHeater:
      return obs::kOwnerHeater;
    default:
      return obs::kOwnerWorkload;
  }
}
}  // namespace
#endif  // SEMPERM_TRACE

SetAssocCache::SetAssocCache(std::string name, std::size_t size_bytes,
                             unsigned assoc)
    : name_(std::move(name)), size_bytes_(size_bytes), assoc_(assoc) {
  StoragePool& pool = storage_pool();
  SEMPERM_ASSERT(assoc_ > 0 && assoc_ <= 64);  // a set's ways fit one mask
  SEMPERM_ASSERT(size_bytes_ % (static_cast<std::size_t>(assoc_) * kCacheLine) == 0);
  // Non-power-of-two set counts are common for sliced LLCs (e.g. 18-slice
  // Broadwell); index by modulo, as slice-hashing hardware effectively does
  // (a mask when possible, divide-free Lemire fastmod otherwise).
  set_count_ = size_bytes_ / (assoc_ * kCacheLine);
  if ((set_count_ & (set_count_ - 1)) == 0) {
    set_mask_ = static_cast<Addr>(set_count_ - 1);
  } else {
    fastmod_magic_ = fastmod_magic(set_count_);
  }
  if (auto recycled = pool.take(set_count_, assoc_)) {
    // Every way of the block carries an epoch <= the old owner's (or the
    // never-current kStaleEpoch), so one epoch later they are all holes.
    block_ = std::move(recycled->words);
    epoch_ = recycled->epoch;
    bump_epoch();
  } else {
    block_ = std::make_unique_for_overwrite<std::uint64_t[]>(
        block_words(set_count_, assoc_));
    restart_epochs();
  }
  grown_ = block_.get() + set_count_ * assoc_;
  std::fill_n(grown_, grown_words(), std::uint64_t{0});
  SEMPERM_TRACE_ONLY(trace_track_ = obs::intern_track(name_);
                     occ_prefix_ = name_;)
}

SetAssocCache::~SetAssocCache() {
  if (block_)  // null once moved from
    storage_pool().give({set_count_, assoc_, epoch_, std::move(block_)});
}

void SetAssocCache::bump_epoch() {
  if (++epoch_ == kStaleEpoch) restart_epochs();
}

void SetAssocCache::restart_epochs() {
  std::fill_n(block_.get(), set_count_ * assoc_, kStaleWord);
  epoch_ = 0;
}

void SetAssocCache::set_partition(unsigned reserved_ways) {
  SEMPERM_ASSERT_MSG(reserved_ways < assoc_,
                     "partition must leave at least one normal way");
  reserved_ways_ = reserved_ways;
}

std::optional<Addr> SetAssocCache::fill(Addr line, FillReason reason,
                                        LineClass cls) {
  const auto evicted = fill_line(line, reason, cls);
  if (!evicted) return std::nullopt;
  return evicted->line;
}

std::optional<SetAssocCache::EvictedWay> SetAssocCache::fill_line(
    Addr line, FillReason reason, LineClass cls, bool dirty) {
  bool resident = false;
  return probe_fill(line, reason, cls, dirty, resident);
}

std::optional<SetAssocCache::EvictedWay> SetAssocCache::probe_fill(
    Addr line, FillReason reason, LineClass cls, bool dirty, bool& resident) {
  const std::size_t s = set_index(line);
  Word* words = set_words(s);
  SEMPERM_AUDIT_ONLY(++audit_fill_calls_;)
  const std::size_t i = find_way(words, line);
  resident = i < assoc_;
  if (resident) {
    // Refresh LRU position; heater touches re-mark the line so coverage
    // accounting reflects the most recent provider.
    Word m = words[i];
    if (reason == FillReason::kHeater) {
      SEMPERM_AUDIT_ONLY(if (reason_of(m) != FillReason::kHeater)
                             ++audit_heater_remarks_;)
      m = (m & ~kReasonMask) |
          (static_cast<Word>(FillReason::kHeater) << kReasonShift);
    }
    // A network line turned normal grows its set's normal count.
    if (cls == LineClass::kNormal && is_network(m)) mark_grown(s);
    m = cls == LineClass::kNetwork ? (m | kNetworkBit) : (m & ~kNetworkBit);
    if (dirty && !is_dirty(m)) {
      ++dirty_ways_;
      SEMPERM_AUDIT_ONLY(++audit_dirty_marks_;)
    }
    if (dirty) m |= kDirtyBit;
    // A refresh transfers ownership to the refreshing component (the
    // heater re-claiming a workload line is the paper's occupancy story);
    // demand *hits* in access() deliberately do not.
    SEMPERM_TRACE_ONLY({
      const obs::OwnerId ow = fill_owner(reason);
      const obs::OwnerId prev = owner_of(m);
      if (ow != prev) {
        --owner_resident_[prev];
        ++owner_resident_[ow];
        m = (m & ~kOwnerMask) | (static_cast<Word>(ow) << kOwnerShift);
      }
    })
    move_to_front(words, i, m);
    SEMPERM_AUDIT_ONLY(audit_set(s); audit_stats();)
    return std::nullopt;
  }
  return fill_absent(s, words, line, reason, cls, dirty);
}

std::optional<SetAssocCache::EvictedWay> SetAssocCache::fill_missed(
    std::size_t s, Addr line, FillReason reason, LineClass cls, bool dirty) {
  Word* words = set_words(s);
  SEMPERM_AUDIT_CHECK(s == set_index(line) && find_way(words, line) == assoc_,
                      name_ << " fill_missed: line " << line
                            << " was handed set " << s
                            << " but is resident or maps elsewhere");
  SEMPERM_AUDIT_ONLY(++audit_fill_calls_;)
  return fill_absent(s, words, line, reason, cls, dirty);
}

SetAssocCache::FillOutcome SetAssocCache::fill_line_if_absent(Addr line,
                                                              FillReason reason,
                                                              LineClass cls,
                                                              bool dirty) {
  const std::size_t s = set_index(line);
  Word* words = set_words(s);
  // Strict no-op on residency — no LRU refresh, no counters — matching the
  // unfused `if (contains(line)) return;` prefetch guard exactly (that path
  // never reached fill_line, so the fill-call audit counter stays put too).
  if (find_way(words, line) < assoc_) return {};
  SEMPERM_AUDIT_ONLY(++audit_fill_calls_;)
  return {true, fill_absent(s, words, line, reason, cls, dirty)};
}

std::optional<SetAssocCache::EvictedWay> SetAssocCache::fill_absent(
    std::size_t s, Word* words, Addr line, FillReason reason, LineClass cls,
    bool dirty) {
  SEMPERM_ASSERT(line < kLineLimit);
  if (reason == FillReason::kPrefetch) ++stats_.prefetch_fills;
  if (reason == FillReason::kHeater) ++stats_.heater_fills;

  // Pick the insertion hole: the first stale way, or the evicted victim's
  // slot. Stale ways act as free capacity — they are exactly what the
  // eager purge used to erase. Both scans are packed-lane way-mask
  // reductions (simd.hpp): the first stale way is the lowest zero bit of
  // the live mask, the class victim the highest set bit of the class mask.
  std::optional<EvictedWay> evicted;
  std::size_t hole;
  if (reserved_ways_ == 0) {
    // Unpartitioned: one LRU pool.
    hole = static_cast<std::size_t>(std::countr_one(live_mask(words)));
    if (hole >= assoc_) {
      hole = assoc_ - 1;  // every way live: the last one is the LRU
      evicted = EvictedWay{line_of(words[hole]), is_dirty(words[hole])};
      ++stats_.evictions;
    }
  } else {
    // Partitioned: each class evicts within its own way quota.
    const bool network = cls == LineClass::kNetwork;
    const std::size_t quota =
        network ? reserved_ways_ : assoc_ - reserved_ways_;
    const std::uint64_t in_class = class_mask(words, cls);
    if (static_cast<std::size_t>(std::popcount(in_class)) >= quota) {
      // The LRU-most live way of this class is the victim.
      hole = static_cast<std::size_t>(std::bit_width(in_class)) - 1;
      evicted = EvictedWay{line_of(words[hole]), is_dirty(words[hole])};
      ++stats_.evictions;
    } else {
      hole = static_cast<std::size_t>(std::countr_one(live_mask(words)));
    }
  }
  if (evicted && evicted->dirty) {
    ++stats_.writebacks;
    --dirty_ways_;
  }
  if (dirty) {
    ++dirty_ways_;
    SEMPERM_AUDIT_ONLY(++audit_dirty_marks_;)
  }
  if (cls == LineClass::kNormal) mark_grown(s);
  SEMPERM_ASSERT_MSG(hole < assoc_, name_ << " has no way left for line "
                                          << line << " (partition overfull)");
  // Timeline probes: evictions of heater-owned lines get their own event
  // name so occupancy-loss analysis can separate them from ordinary
  // churn. words[hole] still holds the victim's word here.
  SEMPERM_TRACE_ONLY(
      if (obs::trace_on()) {
        if (evicted) {
          SEMPERM_TRACE_INSTANT(obs::Category::kCache,
                                reason_of(words[hole]) == FillReason::kHeater
                                    ? "evict_heated"
                                    : "evict",
                                trace_track_, evicted->line,
                                evicted->dirty ? 1.0 : 0.0);
          if (evicted->dirty)
            SEMPERM_TRACE_INSTANT(obs::Category::kCache, "writeback",
                                  trace_track_, evicted->line, 0.0);
        }
        SEMPERM_TRACE_INSTANT(obs::Category::kCache,
                              reason == FillReason::kHeater ? "fill_heater"
                              : reason == FillReason::kPrefetch
                                  ? "fill_prefetch"
                                  : "fill_demand",
                              trace_track_, line, 0.0);
      })
  Word packed = pack(line, epoch_, reason, cls, dirty);
  // Attribution accounting: the victim's owner (words[hole] still holds
  // its word) loses a resident line, the filling owner gains one. Stale
  // holes lost theirs at flush/invalidate time and decrement nothing.
  SEMPERM_TRACE_ONLY({
    if (evicted) --owner_resident_[owner_of(words[hole])];
    const obs::OwnerId ow = fill_owner(reason);
    ++owner_resident_[ow];
    packed |= static_cast<Word>(ow) << kOwnerShift;
  })
  move_to_front(words, hole, packed);
  SEMPERM_AUDIT_ONLY(audit_set(s); audit_stats();)
  return evicted;
}

bool SetAssocCache::touch_fill(Addr line, FillReason reason, LineClass cls) {
  bool resident = false;
  probe_fill(line, reason, cls, /*dirty=*/false, resident);
  return resident;
}

bool SetAssocCache::mark_dirty(Addr line) {
  Word* words = set_words(set_index(line));
  const std::size_t i = find_way(words, line);
  if (i == assoc_) return false;
  if (!is_dirty(words[i])) {
    ++dirty_ways_;
    SEMPERM_AUDIT_ONLY(++audit_dirty_marks_;)
  }
  words[i] |= kDirtyBit;
  return true;
}

bool SetAssocCache::line_dirty(Addr line) const {
  const Word* words = set_words(set_index(line));
  const std::size_t i = find_way(words, line);
  return i < assoc_ && is_dirty(words[i]);
}

void SetAssocCache::invalidate(Addr line) {
  Word* words = set_words(set_index(line));
  const std::size_t i = find_way(words, line);
  if (i == assoc_) return;
  if (is_dirty(words[i])) {
    ++stats_.writebacks;
    --dirty_ways_;
  }
  SEMPERM_TRACE_INSTANT(obs::Category::kCache, "invalidate", trace_track_,
                        line, is_dirty(words[i]) ? 1.0 : 0.0);
  SEMPERM_TRACE_ONLY(--owner_resident_[owner_of(words[i])];)
  words[i] = kStaleWord;
}

void SetAssocCache::flush() {
  // Dirty residents are written back by the flush: the running count says
  // how many, so the epoch bump below is all the way work there is, but
  // for one restart per 4095 bumps.
  SEMPERM_TRACE_INSTANT(obs::Category::kCache, "flush", trace_track_,
                        resident_lines(), static_cast<double>(dirty_ways_));
  stats_.writebacks += dirty_ways_;
  dirty_ways_ = 0;
  ungrown_bound_ = 0;  // nothing is live
  bump_epoch();
  // Every owner lost every line; the stale holes left behind decrement
  // nothing when later fills reclaim them.
  SEMPERM_TRACE_ONLY(owner_resident_.fill(0);)
}

void SetAssocCache::pollute(std::size_t bytes) {
  SEMPERM_TRACE_INSTANT(obs::Category::kCache, "pollute", trace_track_, bytes,
                        static_cast<double>(resident_lines()));
  // Lines the stream pushes through each set.
  const std::size_t per_set =
      (bytes / kCacheLine + set_count_ - 1) / set_count_;
  if (reserved_ways_ == 0 && per_set >= assoc_) {
    flush();  // unpartitioned total displacement: O(1)
    return;
  }
  // The compute stream is ordinary traffic: with a partition configured it
  // competes only for the normal ways and cannot displace network lines.
  const std::size_t normal_capacity = assoc_ - reserved_ways_;
  if (ungrown_bound_ == 0 || ungrown_bound_ + per_set <= normal_capacity) {
    // An unmarked set holds at most ungrown_bound_ normal lines: none to
    // lose, or few enough that the stream fits beside them. Only the sets
    // that grew since the last pollute can lose lines. Ascending set
    // order, as in the full walk.
    for (std::size_t w = 0; w < grown_words(); ++w) {
      for (std::uint64_t bits = grown_[w]; bits != 0; bits &= bits - 1)
        trim_set(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)),
                 per_set, normal_capacity);
      grown_[w] = 0;
    }
  } else {
    for (std::size_t s = 0; s < set_count_; ++s)
      trim_set(s, per_set, normal_capacity);
    std::fill_n(grown_, grown_words(), std::uint64_t{0});
  }
  // Every set now keeps at most the normal ways the stream left over.
  ungrown_bound_ = normal_capacity - std::min(per_set, normal_capacity);
}

void SetAssocCache::trim_set(std::size_t s, std::size_t per_set,
                             std::size_t normal_capacity) {
  Word* words = set_words(s);
  // The stream's lines and the residents compete for the normal ways;
  // only the overflow (LRU-first) is displaced. A set holding few lines
  // keeps them all — this is how a large LLC retains match state.
  std::size_t normal = 0;
  for (std::size_t i = 0; i < assoc_; ++i)
    if (way_live(words[i]) && !is_network(words[i])) ++normal;
  if (normal + per_set <= normal_capacity) return;
  std::size_t drop = normal + per_set - normal_capacity;
  for (std::size_t i = assoc_; i-- > 0 && drop > 0;) {
    if (way_live(words[i]) && !is_network(words[i])) {
      if (is_dirty(words[i])) {
        ++stats_.writebacks;
        --dirty_ways_;
      }
      SEMPERM_TRACE_ONLY(--owner_resident_[owner_of(words[i])];)
      words[i] = kStaleWord;
      --drop;
    }
  }
}

std::size_t SetAssocCache::resident_lines_filled_by(FillReason reason) const {
  std::size_t n = 0;
  for_each_word([&](Word w) {
    if (way_live(w) && reason_of(w) == reason) ++n;
  });
  return n;
}

std::size_t SetAssocCache::resident_lines() const {
  std::size_t n = 0;
  for_each_word([&](Word w) {
    if (way_live(w)) ++n;
  });
  return n;
}

#if SEMPERM_TRACE

void SetAssocCache::trace_set_occupancy_prefix(std::string prefix) {
  occ_prefix_ = std::move(prefix);
  occ_tracks_.fill(0);
  occ_total_track_ = 0;
}

void SetAssocCache::trace_sample_owner_occupancy(std::uint64_t sim_ts) {
  if (!obs::trace_on()) return;
  // Every registered owner emits every pass — including zeros. Dense
  // snapshots keep each pass self-consistent even when several cache
  // instances share one exported prefix (sequential bench panels each
  // build their own "L3"): a sequential reader never mistakes a stale
  // lane from the previous instance for this instance's value, which is
  // what makes the summarizer's conservation walk exact.
  const unsigned owners = obs::owner_count();
  for (unsigned id = 0; id < owners; ++id) {
    const std::uint64_t v = owner_resident_[id];
    if (occ_tracks_[id] == 0)
      occ_tracks_[id] = obs::intern_track(
          occ_prefix_ + "/occ/" +
          std::string(obs::owner_name(static_cast<obs::OwnerId>(id))));
    // Counters ride on interned tracks with an empty event name (the
    // MetricsRegistry::sample pattern): the exported lane name is just
    // the track string.
    obs::emit_event(obs::EventKind::kCounter, obs::Category::kCache, "",
                    occ_tracks_[id], 0, static_cast<double>(v), sim_ts);
  }
  if (occ_total_track_ == 0)
    occ_total_track_ = obs::intern_track(occ_prefix_ + "/occ_total");
  // Deliberately an independent metadata recount, not the counter sum:
  // this is the ground truth the summarizer's conservation check
  // compares the per-owner lanes against.
  obs::emit_event(obs::EventKind::kCounter, obs::Category::kCache, "",
                  occ_total_track_, 0,
                  static_cast<double>(resident_lines()), sim_ts);
}

#endif  // SEMPERM_TRACE

void SetAssocCache::reset_stats() {
  stats_ = CacheStats{};
  SEMPERM_AUDIT_ONLY(
      audit_accesses_ = 0; audit_fill_calls_ = 0; audit_dirty_marks_ = 0;
      audit_heater_remarks_ = 0; audit_prefetch_base_ = 0;
      audit_heater_base_ = 0; audit_prev_stats_ = CacheStats{};
      // Resident state survives a stats reset: dirty lines will still be
      // written back and prefetched/heated lines still earn coverage
      // hits, so the conservation bounds must start from what is already
      // in the cache, not from zero.
      for_each_word([&](Word w) {
        if (!way_live(w)) return;
        if (is_dirty(w)) ++audit_dirty_marks_;
        if (reason_of(w) == FillReason::kPrefetch) ++audit_prefetch_base_;
        if (reason_of(w) == FillReason::kHeater) ++audit_heater_base_;
      });)
}

#if SEMPERM_AUDIT

void SetAssocCache::audit_set(std::size_t set_idx) const {
  const Word* words = set_words(set_idx);
  std::size_t network_ways = 0;
  std::size_t normal_ways = 0;
  for (std::size_t i = 0; i < assoc_; ++i) {
    if (!way_live(words[i])) continue;
    const Addr line = line_of(words[i]);
    SEMPERM_AUDIT_CHECK(set_index(line) == set_idx,
                        name_ << " line " << line
                              << " indexed into the wrong set " << set_idx);
    is_network(words[i]) ? ++network_ways : ++normal_ways;
    for (std::size_t j = i + 1; j < assoc_; ++j)
      SEMPERM_AUDIT_CHECK(!(way_live(words[j]) && line_of(words[j]) == line),
                          name_ << " set " << set_idx
                                << " LRU stack is not a permutation: line "
                                << line << " appears twice");
  }
  SEMPERM_AUDIT_CHECK(is_grown(set_idx) || normal_ways <= ungrown_bound_,
                      name_ << " set " << set_idx << " is not marked grown "
                            << "but holds " << normal_ways
                            << " live normal lines, above the ungrown bound "
                            << ungrown_bound_);
  if (reserved_ways_ > 0) {
    SEMPERM_AUDIT_CHECK(network_ways <= reserved_ways_,
                        name_ << " set " << set_idx << " holds "
                              << network_ways
                              << " network ways, partition quota is "
                              << reserved_ways_);
    SEMPERM_AUDIT_CHECK(normal_ways <= assoc_ - reserved_ways_,
                        name_ << " set " << set_idx << " holds "
                              << normal_ways
                              << " normal ways, partition quota is "
                              << assoc_ - reserved_ways_);
  }
}

void SetAssocCache::audit_stats() const {
  SEMPERM_AUDIT_CHECK(stats_.demand_hits + stats_.demand_misses ==
                          audit_accesses_,
                      name_ << " accounting leak: hits " << stats_.demand_hits
                            << " + misses " << stats_.demand_misses
                            << " != accesses " << audit_accesses_);
  SEMPERM_AUDIT_CHECK(stats_.evictions <= audit_fill_calls_,
                      name_ << " evictions " << stats_.evictions
                            << " exceed fill operations "
                            << audit_fill_calls_);
  SEMPERM_AUDIT_CHECK(stats_.writebacks <= audit_dirty_marks_,
                      name_ << " writebacks " << stats_.writebacks
                            << " exceed clean->dirty transitions "
                            << audit_dirty_marks_
                            << " (a clean line was written back)");
  SEMPERM_AUDIT_CHECK(
      stats_.prefetch_hits <= stats_.prefetch_fills + audit_prefetch_base_,
      name_ << " prefetch coverage " << stats_.prefetch_hits
            << " exceeds prefetch fills " << stats_.prefetch_fills
            << " + resident-at-reset " << audit_prefetch_base_);
  SEMPERM_AUDIT_CHECK(
      stats_.heater_hits <=
          stats_.heater_fills + audit_heater_remarks_ + audit_heater_base_,
      name_ << " heater coverage " << stats_.heater_hits
            << " exceeds heater fills " << stats_.heater_fills
            << " + re-marks " << audit_heater_remarks_
            << " + resident-at-reset " << audit_heater_base_);
  // Monotonicity: counters only ever grow between resets.
  const CacheStats& p = audit_prev_stats_;
  SEMPERM_AUDIT_CHECK(
      stats_.demand_hits >= p.demand_hits &&
          stats_.demand_misses >= p.demand_misses &&
          stats_.prefetch_fills >= p.prefetch_fills &&
          stats_.prefetch_hits >= p.prefetch_hits &&
          stats_.heater_fills >= p.heater_fills &&
          stats_.heater_hits >= p.heater_hits &&
          stats_.evictions >= p.evictions &&
          stats_.writebacks >= p.writebacks,
      name_ << " a statistics counter decreased outside reset_stats()");
  audit_prev_stats_ = stats_;
}

void SetAssocCache::audit() const {
  for (std::size_t idx = 0; idx < set_count_; ++idx) audit_set(idx);
  audit_stats();
  SEMPERM_AUDIT_CHECK(resident_lines() <= set_count_ * assoc_,
                      name_ << " resident lines exceed capacity");
  std::size_t dirty = 0;
  for_each_word([&](Word w) {
    if (way_live(w) && is_dirty(w)) ++dirty;
  });
  SEMPERM_AUDIT_CHECK(dirty == dirty_ways_,
                      name_ << " dirty-way count " << dirty_ways_
                            << " disagrees with metadata recount " << dirty
                            << " (flush would write back the wrong number)");
#if SEMPERM_TRACE
  // Residency-attribution conservation (DESIGN.md §16): the maintained
  // per-owner counters must equal a fresh recount of the metadata owner
  // fields, and their sum must equal the resident-line total.
  std::array<std::uint64_t, obs::kMaxOwners> recount{};
  std::uint64_t live = 0;
  for_each_word([&](Word w) {
    if (!way_live(w)) return;
    ++recount[owner_of(w)];
    ++live;
  });
  std::uint64_t owner_sum = 0;
  for (unsigned id = 0; id < obs::kMaxOwners; ++id) {
    SEMPERM_AUDIT_CHECK(
        recount[id] == owner_resident_[id],
        name_ << " owner '"
              << obs::owner_name(static_cast<obs::OwnerId>(id))
              << "' counter " << owner_resident_[id]
              << " disagrees with metadata recount " << recount[id]);
    owner_sum += owner_resident_[id];
  }
  SEMPERM_AUDIT_CHECK(owner_sum == live,
                      name_ << " per-owner occupancy sum " << owner_sum
                            << " != resident lines " << live);
#endif  // SEMPERM_TRACE
}

void SetAssocCache::audit_corrupt_lru_for_test(Addr line) {
  Word* words = set_words(set_index(line));
  std::size_t mru = assoc_;
  for (std::size_t i = 0; i < assoc_; ++i) {
    if (way_live(words[i])) {
      mru = i;
      break;
    }
  }
  SEMPERM_ASSERT_MSG(mru < assoc_, "cannot corrupt an empty set");
  // Duplicate the MRU way into another slot (a stale hole if one exists):
  // the stack is no longer a permutation.
  std::size_t target = assoc_;
  for (std::size_t i = 0; i < assoc_; ++i) {
    if (i != mru && !way_live(words[i])) {
      target = i;
      break;
    }
  }
  if (target == assoc_) target = (mru == assoc_ - 1) ? 0 : assoc_ - 1;
  SEMPERM_ASSERT_MSG(target != mru, "cannot corrupt a 1-way set");
  words[target] = words[mru];
}

void SetAssocCache::audit_clear_grown_for_test(Addr line) {
  const std::size_t s = set_index(line);
  grown_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
}

#else

void SetAssocCache::audit() const {}

#endif  // SEMPERM_AUDIT

}  // namespace semperm::cachesim

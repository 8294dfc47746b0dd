// semperm/coherence/line_map.hpp
//
// LineMap<V> — a flat open-addressing hash map from cache-line index to a
// small POD value: the coherence directory's table (one DirEntry per line
// that some core holds privately).
//
// Why not unordered_map: every insert/erase there is a node malloc/free
// and every lookup a prime-modulo hash plus a pointer chase — all of it
// per simulated access in CoherentHierarchy::access_line. LineMap keeps
// entries inline in one contiguous slot array (linear probing,
// power-of-two capacity, multiplicative hashing), so the steady state
// allocates nothing: lookups are one mix + masked scan, erase uses
// backward-shift deletion (no tombstones, so probe chains never rot).
//
// A slot is just the pair<Addr, V>: the reserved key ~Addr{0} marks a
// free slot instead of a separate `used` flag, so a slot is no wider
// than its key and value — the probe arrays are random-access on every
// simulated miss, and their footprint is what those probes cost. No real
// cache-line index can collide with the sentinel (it would be the line at
// the very top of the 64-bit address space); inserts assert it.
//
// The API is the small unordered_map-like subset the coherence layer
// uses — find/end, find_or_insert, erase(iterator), clear, range-for over
// pair<Addr, V> — plus for_each_erasable, a scan that may erase as it
// goes. Iteration order is deterministic (pure function of the insert/
// erase history) but is NOT insertion order; no caller depends on order.
// References and iterators are invalidated by rehash (growth) and by
// erase, like any open-addressing table — callers must not hold them
// across mutations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace semperm::coherence {

template <typename V>
class LineMap {
  /// Reserved key marking a free slot.
  static constexpr Addr kEmpty = ~Addr{0};

  using Slot = std::pair<Addr, V>;

  template <bool Const>
  class Iter {
    using SlotPtr = std::conditional_t<Const, const Slot*, Slot*>;

   public:
    using value_type = std::pair<Addr, V>;
    using reference =
        std::conditional_t<Const, const value_type&, value_type&>;
    using pointer = std::conditional_t<Const, const value_type*, value_type*>;

    Iter() = default;
    Iter(SlotPtr p, SlotPtr end) : p_(p), end_(end) {}
    /// Conversion iterator -> const_iterator.
    operator Iter<true>() const { return Iter<true>(p_, end_); }

    reference operator*() const { return *p_; }
    pointer operator->() const { return p_; }
    Iter& operator++() {
      ++p_;
      skip_free();
      return *this;
    }
    bool operator==(const Iter& o) const { return p_ == o.p_; }
    bool operator!=(const Iter& o) const { return p_ != o.p_; }

    void skip_free() {
      while (p_ != end_ && p_->first == kEmpty) ++p_;
    }

   private:
    friend class LineMap;
    SlotPtr p_ = nullptr;
    SlotPtr end_ = nullptr;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  /// `capacity_hint` rounds up to a power of two; the table grows by
  /// doubling past 3/4 occupancy, so size it for the expected steady
  /// state to avoid rehashes mid-run.
  explicit LineMap(std::size_t capacity_hint = 1024) {
    std::size_t cap = 16;
    while (cap < capacity_hint) cap <<= 1;
    slots_.resize(cap, Slot{kEmpty, V{}});
  }

  iterator end() {
    return iterator(slots_.data() + slots_.size(),
                    slots_.data() + slots_.size());
  }
  const_iterator begin() const {
    const_iterator it(slots_.data(), slots_.data() + slots_.size());
    it.skip_free();
    return it;
  }
  const_iterator end() const {
    return const_iterator(slots_.data() + slots_.size(),
                          slots_.data() + slots_.size());
  }

  iterator find(Addr key) {
    const std::size_t i = probe(key);
    return slots_[i].first != kEmpty ? at_index(i) : end();
  }
  const_iterator find(Addr key) const {
    const std::size_t i = probe(key);
    return slots_[i].first != kEmpty
               ? const_iterator(slots_.data() + i,
                                slots_.data() + slots_.size())
               : end();
  }

  /// Insert-or-find, default-constructing the value on insert.
  iterator find_or_insert(Addr key) {
    SEMPERM_ASSERT(key != kEmpty);
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    const std::size_t i = probe(key);
    Slot& s = slots_[i];
    if (s.first == kEmpty) {
      s.first = key;
      s.second = V{};
      ++size_;
    }
    return at_index(i);
  }

  void erase(const_iterator it) {
    erase_at(static_cast<std::size_t>(it.p_ - slots_.data()));
  }

  /// Visit every entry exactly once. `fn(it)` may erase the entry it is
  /// handed (and no other) and must not insert. Backward-shift deletion
  /// refills a hole only from later in the same run of used slots, so a
  /// scan that starts just past a free slot re-examines a refilled hole
  /// and never meets an entry twice.
  template <typename Fn>
  void for_each_erasable(Fn&& fn) {
    std::size_t start = 0;
    while (slots_[start].first != kEmpty) ++start;  // load factor < 1
    for (std::size_t k = 1; k <= slots_.size();) {
      const std::size_t i = (start + k) & mask();
      const Addr key = slots_[i].first;
      if (key != kEmpty) fn(at_index(i));
      if (key == kEmpty || slots_[i].first == key) ++k;
    }
  }

  /// Drop every entry; capacity (and therefore the zero-allocation steady
  /// state) is retained.
  void clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) s.first = kEmpty;
    size_ = 0;
  }

 private:
  /// SplitMix64 finalizer: full-avalanche multiplicative mix, so
  /// sequential line indices scatter across the table instead of
  /// clustering into one probe chain.
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t home(Addr key) const {
    return static_cast<std::size_t>(mix(key)) & mask();
  }

  /// Index of `key`'s slot if present, else of the free slot that would
  /// receive it. The load factor cap guarantees a free slot exists, so
  /// the scan terminates. (The sentinel makes "free" and "other key"
  /// the same test: scan until slots_[i].first is key or kEmpty.)
  std::size_t probe(Addr key) const {
    std::size_t i = home(key);
    while (slots_[i].first != kEmpty && slots_[i].first != key)
      i = (i + 1) & mask();
    return i;
  }

  iterator at_index(std::size_t i) {
    return iterator(slots_.data() + i, slots_.data() + slots_.size());
  }

  /// Backward-shift deletion: refill the hole by sliding up every chain
  /// entry whose home precedes it, so lookups never need tombstones.
  void erase_at(std::size_t i) {
    SEMPERM_ASSERT(slots_[i].first != kEmpty);
    --size_;
    std::size_t j = i;
    for (;;) {
      slots_[i].first = kEmpty;
      for (;;) {
        j = (j + 1) & mask();
        if (slots_[j].first == kEmpty) return;
        const std::size_t h = home(slots_[j].first);
        // Slot j may move into hole i only if its home does not lie
        // cyclically inside (i, j] — otherwise the move would break the
        // probe chain between home and j.
        const bool movable = i <= j ? (h <= i || h > j) : (h <= i && h > j);
        if (movable) break;
      }
      slots_[i] = std::move(slots_[j]);
      i = j;
    }
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(old.size() * 2, Slot{kEmpty, V{}});
    size_ = 0;
    for (Slot& s : old)
      if (s.first != kEmpty)
        find_or_insert(s.first)->second = std::move(s.second);
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace semperm::coherence

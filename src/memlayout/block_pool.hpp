// semperm/memlayout/block_pool.hpp
//
// BlockPool: a pool of raw blocks over an Arena, with a block size chosen
// at run time (the linked-list-of-arrays queue picks its node size from
// the entries-per-array parameter, which the benchmark harness sweeps)
// and a configurable *address policy*.
//
// The address policy is one of the study's experimental knobs (DESIGN.md
// decision 2): the baseline linked list in a long-lived MPI process does
// not receive consecutive node addresses — it recycles nodes through a
// general-purpose allocator whose free list is effectively scrambled by
// unrelated traffic. kScattered models that by carving chunks of blocks
// and handing them out in a seeded-shuffled order; kSequential hands
// blocks out in address order (best case for a hardware stream
// prefetcher).
//
// Pools never return memory to the arena. Released blocks go onto the
// pool's free list and are recycled, which is the element-reuse
// discipline the paper's hot-caching implementation requires (§3.2: the
// heater thread may touch any registered region at any moment, so region
// memory must stay valid for the lifetime of the pool).
//
// acquire()/release() sit on the match engine's hot path (every queue
// append/remove goes through them), so both are SEMPERM_HOT and
// allocation-free in steady state: the free list is threaded intrusively
// through the first word of each free block instead of held in a
// side vector, and carve_chunk()'s shuffle scratch is sized once at
// construction. The only allocation after the constructor is the arena
// carve itself when the pool grows — the sanctioned warm-up event.
#pragma once

#include <algorithm>
#include <cstddef>
#include <new>
#include <vector>

#include "common/assert.hpp"
#include "common/hot_path.hpp"
#include "common/rng.hpp"
#include "memlayout/arena.hpp"

namespace semperm::memlayout {

enum class AddressPolicy {
  kSequential,  // blocks handed out in ascending address order
  kScattered,   // blocks handed out in seeded-shuffled order
};

class BlockPool {
 public:
  /// Blocks of `block_bytes`, each aligned to `align` (power of two; at
  /// least one cache line so a block never shares a line with another).
  BlockPool(Arena& arena, std::size_t block_bytes, std::size_t align,
            AddressPolicy policy, std::size_t chunk_blocks = 64,
            std::uint64_t shuffle_seed = 0xb10c5eedULL)
      : arena_(&arena),
        block_bytes_(round_up(block_bytes, align)),
        align_(align),
        policy_(policy),
        chunk_blocks_(chunk_blocks),
        rng_(shuffle_seed),
        scratch_(chunk_blocks) {
    SEMPERM_ASSERT(block_bytes > 0);
    SEMPERM_ASSERT(align >= kCacheLine && (align & (align - 1)) == 0);
    SEMPERM_ASSERT(chunk_blocks_ > 0);
  }

  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  SEMPERM_HOT void* acquire() {
    if (free_head_ == nullptr) carve_chunk();
    FreeNode* n = free_head_;
    free_head_ = n->next;
    ++live_;
    return n;
  }

  SEMPERM_HOT void release(void* p) {
    SEMPERM_ASSERT(p != nullptr);
    SEMPERM_ASSERT_MSG(arena_->contains(p), "releasing foreign pointer");
    SEMPERM_ASSERT(live_ > 0);
    --live_;
    free_head_ = new (p) FreeNode{free_head_};
  }

  std::size_t block_bytes() const { return block_bytes_; }
  std::size_t live() const { return live_; }
  std::size_t carved() const { return carved_; }
  /// Total bytes ever carved — the stable region a heater can register.
  std::size_t carved_bytes() const { return carved_ * block_bytes_; }
  Arena& arena() const { return *arena_; }

 private:
  // A free block's first word holds the link to the next free block; the
  // block is otherwise dead (callers copy an entry out before releasing),
  // and block_bytes_ >= kCacheLine leaves ample room. Placement-new keeps
  // the object model honest; FreeNode is trivially destructible, so the
  // caller placement-constructing over an acquired block is fine.
  struct FreeNode {
    FreeNode* next;
  };

  void carve_chunk() {
    char* base = static_cast<char*>(
        arena_->allocate(block_bytes_ * chunk_blocks_, align_));
    carved_ += chunk_blocks_;
    for (std::size_t i = 0; i < chunk_blocks_; ++i)
      scratch_[i] = base + i * block_bytes_;
    if (policy_ == AddressPolicy::kScattered) {
      rng_.shuffle(scratch_);
    } else {
      std::reverse(scratch_.begin(), scratch_.end());
    }
    // Threading the free list in scratch order and popping from the head
    // hands blocks out in reverse scratch order — the same order the old
    // vector-stack implementation produced, so layouts (and every figure
    // derived from them) are unchanged.
    for (void* s : scratch_) free_head_ = new (s) FreeNode{free_head_};
  }

  Arena* arena_;
  std::size_t block_bytes_;
  std::size_t align_;
  AddressPolicy policy_;
  std::size_t chunk_blocks_;
  Rng rng_;
  FreeNode* free_head_ = nullptr;
  std::vector<void*> scratch_;  // sized once; reused by every carve
  std::size_t live_ = 0;
  std::size_t carved_ = 0;
};

}  // namespace semperm::memlayout

#include "memlayout/block_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <stdexcept>
#include <vector>

namespace semperm::memlayout {
namespace {

TEST(BlockPool, SequentialPolicyHandsOutAscendingAddresses) {
  AddressSpace space;
  Arena arena(space, 1 << 16);
  BlockPool pool(arena, 64, 64, AddressPolicy::kSequential,
                 /*chunk_blocks=*/32);
  char* prev = static_cast<char*>(pool.acquire());
  for (int i = 0; i < 31; ++i) {
    char* next = static_cast<char*>(pool.acquire());
    EXPECT_GT(next, prev);
    prev = next;
  }
}

TEST(BlockPool, ScatteredPolicyShufflesAddresses) {
  AddressSpace space;
  Arena arena(space, 1 << 16);
  BlockPool pool(arena, 64, 64, AddressPolicy::kScattered,
                 /*chunk_blocks=*/64);
  std::vector<void*> blocks;
  for (int i = 0; i < 64; ++i) blocks.push_back(pool.acquire());
  EXPECT_FALSE(std::is_sorted(blocks.begin(), blocks.end()));
  // Still 64 distinct blocks.
  std::set<void*> unique(blocks.begin(), blocks.end());
  EXPECT_EQ(unique.size(), 64u);
}

TEST(BlockPool, ReleaseRecyclesMemory) {
  AddressSpace space;
  Arena arena(space, 1 << 12);
  BlockPool pool(arena, 64, 64, AddressPolicy::kSequential,
                 /*chunk_blocks=*/4);
  void* a = pool.acquire();
  void* b = pool.acquire();
  pool.release(a);
  pool.release(b);
  EXPECT_EQ(pool.acquire(), b);  // LIFO reuse
  EXPECT_EQ(pool.acquire(), a);
  EXPECT_EQ(pool.live(), 2u);
}

TEST(BlockPool, LiveAndCarvedAccounting) {
  AddressSpace space;
  Arena arena(space, 1 << 14);
  BlockPool pool(arena, 64, 64, AddressPolicy::kSequential,
                 /*chunk_blocks=*/8);
  std::vector<void*> held;
  for (int i = 0; i < 10; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.live(), 10u);
  EXPECT_EQ(pool.carved(), 16u);  // two chunks of 8
  for (void* p : held) pool.release(p);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.carved(), 16u);  // never returned to the arena
}

TEST(BlockPool, ForeignReleaseThrows) {
  AddressSpace space;
  Arena arena(space, 1 << 12);
  BlockPool pool(arena, 64, 64, AddressPolicy::kSequential);
  alignas(64) std::byte foreign[64];
  EXPECT_THROW(pool.release(foreign), std::logic_error);
}

TEST(BlockPool, DeterministicScatterPerSeed) {
  AddressSpace s1, s2, s3;
  Arena a1(s1, 1 << 14), a2(s2, 1 << 14), a3(s3, 1 << 14);
  BlockPool p1(a1, 64, 64, AddressPolicy::kScattered, 32, 99);
  BlockPool p2(a2, 64, 64, AddressPolicy::kScattered, 32, 99);
  BlockPool p3(a3, 64, 64, AddressPolicy::kScattered, 32, 100);
  bool other_seed_differs = false;
  for (int i = 0; i < 32; ++i) {
    const auto off1 = static_cast<char*>(p1.acquire()) -
                      static_cast<const char*>(a1.buffer_base());
    const auto off2 = static_cast<char*>(p2.acquire()) -
                      static_cast<const char*>(a2.buffer_base());
    const auto off3 = static_cast<char*>(p3.acquire()) -
                      static_cast<const char*>(a3.buffer_base());
    EXPECT_EQ(off1, off2);
    other_seed_differs |= off1 != off3;
  }
  EXPECT_TRUE(other_seed_differs);
}

TEST(BlockPool, RoundsBlockSizeToAlignment) {
  AddressSpace space;
  Arena arena(space, 1 << 14);
  BlockPool pool(arena, /*block_bytes=*/100, /*align=*/64,
                 AddressPolicy::kSequential);
  EXPECT_EQ(pool.block_bytes(), 128u);
}

TEST(BlockPool, BlocksAreAlignedAndDisjoint) {
  AddressSpace space;
  Arena arena(space, 1 << 16);
  BlockPool pool(arena, 192, 128, AddressPolicy::kSequential, 16);
  std::vector<char*> blocks;
  for (int i = 0; i < 16; ++i)
    blocks.push_back(static_cast<char*>(pool.acquire()));
  for (char* b : blocks)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 128, 0u);
  std::sort(blocks.begin(), blocks.end());
  for (std::size_t i = 1; i < blocks.size(); ++i)
    EXPECT_GE(blocks[i] - blocks[i - 1],
              static_cast<std::ptrdiff_t>(pool.block_bytes()));
}

TEST(BlockPool, CarvedBytesCoversHeaterRegion) {
  AddressSpace space;
  Arena arena(space, 1 << 16);
  BlockPool pool(arena, 256, 64, AddressPolicy::kSequential, 8);
  pool.acquire();
  EXPECT_EQ(pool.carved_bytes(), 8u * 256u);
}

TEST(BlockPool, ScatteredIsDeterministicPerSeed) {
  AddressSpace s1, s2;
  Arena a1(s1, 1 << 16), a2(s2, 1 << 16);
  BlockPool p1(a1, 128, 64, AddressPolicy::kScattered, 32, 7);
  BlockPool p2(a2, 128, 64, AddressPolicy::kScattered, 32, 7);
  for (int i = 0; i < 32; ++i) {
    const auto off1 = static_cast<char*>(p1.acquire()) -
                      static_cast<const char*>(a1.buffer_base());
    const auto off2 = static_cast<char*>(p2.acquire()) -
                      static_cast<const char*>(a2.buffer_base());
    EXPECT_EQ(off1, off2);
  }
}

}  // namespace
}  // namespace semperm::memlayout

#include "cachesim/mem_model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "cachesim/arch.hpp"

namespace semperm::cachesim {
namespace {

ArchProfile quiet() {
  auto a = sandy_bridge();
  a.prefetch = PrefetchConfig{false, false, false, 2, 4};
  return a;
}

TEST(SimMem, TranslatesArenaPointersDeterministically) {
  auto arch = quiet();
  Hierarchy h(arch);
  SimMem mem(h);
  memlayout::AddressSpace space;
  memlayout::Arena arena(space, 4096);
  mem.map_arena(arena);
  char* p = static_cast<char*>(arena.allocate(128, 64));
  EXPECT_EQ(mem.translate(p), arena.sim_addr(p));
}

TEST(SimMem, ReadChargesHierarchyCycles) {
  auto arch = quiet();
  Hierarchy h(arch);
  SimMem mem(h);
  memlayout::AddressSpace space;
  memlayout::Arena arena(space, 4096);
  mem.map_arena(arena);
  char* p = static_cast<char*>(arena.allocate(64, 64));
  mem.read(p, 4);
  EXPECT_EQ(mem.cycles(), arch.dram_latency);
  mem.read(p, 4);  // now L1-resident
  EXPECT_EQ(mem.cycles(), arch.dram_latency + arch.l1.hit_latency);
}

TEST(SimMem, WriteAllocatesLikeRead) {
  auto arch = quiet();
  Hierarchy h(arch);
  SimMem mem(h);
  memlayout::AddressSpace space;
  memlayout::Arena arena(space, 4096);
  mem.map_arena(arena);
  char* p = static_cast<char*>(arena.allocate(64, 64));
  mem.write(p, 8);
  EXPECT_EQ(mem.cycles(), arch.dram_latency);
  EXPECT_TRUE(h.resident(0, arena.sim_addr(p)));
}

TEST(SimMem, WorkAccumulatesComputeCycles) {
  Hierarchy h(quiet());
  SimMem mem(h);
  mem.work(10);
  mem.work(5);
  EXPECT_EQ(mem.cycles(), 15u);
}

TEST(SimMem, SinceAndReset) {
  Hierarchy h(quiet());
  SimMem mem(h);
  mem.work(10);
  const Cycles mark = mem.cycles();
  mem.work(7);
  EXPECT_EQ(mem.since(mark), 7u);
  mem.reset_cycles();
  EXPECT_EQ(mem.cycles(), 0u);
}

TEST(SimMem, MultipleArenasResolve) {
  Hierarchy h(quiet());
  SimMem mem(h);
  memlayout::AddressSpace space;
  memlayout::Arena a(space, 4096), b(space, 4096);
  mem.map_arena(a);
  mem.map_arena(b);
  char* pa = static_cast<char*>(a.allocate(16));
  char* pb = static_cast<char*>(b.allocate(16));
  EXPECT_EQ(mem.translate(pa), a.sim_addr(pa));
  EXPECT_EQ(mem.translate(pb), b.sim_addr(pb));
  EXPECT_NE(mem.translate(pa), mem.translate(pb));
}

TEST(SimMem, UnmappedPointerThrows) {
  Hierarchy h(quiet());
  SimMem mem(h);
  int local = 0;
  EXPECT_THROW(mem.translate(&local), std::logic_error);
}

TEST(SimMem, BatchChargesWhatSingleAccessesDo) {
  const auto arch = sandy_bridge();
  Hierarchy hb(arch), hs(arch);
  SimMem batched(hb), single(hs);
  memlayout::AddressSpace sb, ss;
  memlayout::Arena ab(sb, 4096), as(ss, 4096);
  batched.map_arena(ab);
  single.map_arena(as);
  char* pb = static_cast<char*>(ab.allocate(512, 64));
  char* ps = static_cast<char*>(as.allocate(512, 64));
  // Reads, a line-crossing read, compute work and a write, twice: the
  // second batch finds the lines resident but is not clean (it writes).
  const auto walk = [](SimMem& mem, char* p) {
    mem.read(p, 8);
    mem.work(3);
    mem.read(p + 100, 100);
    mem.write(p + 300, 8);
    mem.read(p + 448, 64);
  };
  for (int round = 0; round < 2; ++round) {
    batched.batch([&] { walk(batched, pb); });
    walk(single, ps);
    EXPECT_EQ(batched.cycles(), single.cycles()) << round;
    EXPECT_EQ(hb.stats().accesses, hs.stats().accesses) << round;
    EXPECT_EQ(hb.stats().lines_touched, hs.stats().lines_touched) << round;
    EXPECT_EQ(hb.level(0).stats(), hs.level(0).stats()) << round;
  }
  EXPECT_EQ(hb.replayed_batches(), 0u);
}

TEST(SimMem, BatchesDoNotNestAndEndWhenTheWalkThrows) {
  Hierarchy h(quiet());
  SimMem mem(h);
  memlayout::AddressSpace space;
  memlayout::Arena arena(space, 4096);
  mem.map_arena(arena);
  char* p = static_cast<char*>(arena.allocate(64, 64));
  EXPECT_THROW(mem.batch([&] { mem.batch([] {}); }), std::logic_error);
  EXPECT_THROW(mem.batch([&] {
                 mem.read(p, 4);
                 throw std::runtime_error("walk failed");
               }),
               std::runtime_error);
  EXPECT_EQ(mem.cycles(), 0u);  // the thrown batch charged nothing
  mem.read(p, 4);               // and batching ended with it
  EXPECT_EQ(mem.cycles(), quiet().dram_latency);
}

TEST(NativeMemPolicy, IsFreeAndSatisfiesConcept) {
  static_assert(MemoryModel<NativeMem>);
  static_assert(MemoryModel<SimMem>);
  NativeMem mem;
  int x = 0;
  mem.read(&x, 4);
  mem.write(&x, 4);
  mem.work(1000);
  EXPECT_EQ(mem.cycles(), 0u);
}

}  // namespace
}  // namespace semperm::cachesim

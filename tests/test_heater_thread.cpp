#include "hotcache/heater_thread.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace semperm::hotcache {
namespace {

TEST(HeaterThread, SinglePassTouchesAllRegisteredLines) {
  RegionRegistry reg;
  std::vector<std::byte> a(4096), b(256);
  reg.register_region(a.data(), a.size());
  reg.register_region(b.data(), b.size());
  HeaterThread heater(reg, HeaterConfig{});
  heater.run_single_pass();
  const auto stats = heater.stats();
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.lines_touched, 4096u / 64 + 256u / 64);
  EXPECT_EQ(stats.bytes_touched, 4096u + 256u);
}

TEST(HeaterThread, PassBudgetBoundsTouching) {
  RegionRegistry reg;
  std::vector<std::byte> big(1 << 16);
  reg.register_region(big.data(), big.size());
  HeaterConfig cfg;
  cfg.max_bytes_per_pass = 1024;
  HeaterThread heater(reg, cfg);
  heater.run_single_pass();
  EXPECT_EQ(heater.stats().bytes_touched, 1024u);
}

TEST(HeaterThread, SkipsTombstonedRegions) {
  RegionRegistry reg;
  std::vector<std::byte> a(640), b(640);
  reg.register_region(a.data(), a.size());
  const auto slot = reg.register_region(b.data(), b.size());
  reg.unregister_region(slot);
  HeaterThread heater(reg, HeaterConfig{});
  heater.run_single_pass();
  EXPECT_EQ(heater.stats().bytes_touched, 640u);
}

TEST(HeaterThread, StartStopLifecycle) {
  RegionRegistry reg;
  std::vector<std::byte> a(4096);
  reg.register_region(a.data(), a.size());
  HeaterConfig cfg;
  cfg.period_ns = 100'000;  // 0.1 ms
  HeaterThread heater(reg, cfg);
  EXPECT_FALSE(heater.running());
  heater.start();
  EXPECT_TRUE(heater.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  heater.stop();
  EXPECT_FALSE(heater.running());
  EXPECT_GE(heater.stats().passes, 1u);
}

TEST(HeaterThread, StopIsIdempotentAndDestructorSafe) {
  RegionRegistry reg;
  HeaterThread heater(reg, HeaterConfig{});
  heater.start();
  heater.stop();
  heater.stop();  // no-op
  // Destructor runs stop() again — must not hang or crash.
}

TEST(HeaterThread, PauseSuppressesPasses) {
  RegionRegistry reg;
  std::vector<std::byte> a(64);
  reg.register_region(a.data(), a.size());
  HeaterConfig cfg;
  cfg.period_ns = 200'000;
  HeaterThread heater(reg, cfg);
  heater.pause();
  heater.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto paused_passes = heater.stats().passes;
  heater.resume();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  heater.stop();
  EXPECT_EQ(paused_passes, 0u);
  EXPECT_GE(heater.stats().passes, 1u);
}

TEST(HeaterThread, TouchSumsFirstWordPerLine) {
  alignas(64) std::uint32_t words[64] = {};
  words[0] = 5;                       // line 0, first 4 bytes
  words[16] = 7;                      // line 1 (64 bytes = 16 words)
  words[1] = 100;                     // NOT the first word of a line
  const auto sum = HeaterThread::touch(
      reinterpret_cast<const std::byte*>(words), sizeof(words));
  EXPECT_EQ(sum, 12u);
}

TEST(HeaterThread, PassesRunWhileRegionsAreReregistered) {
  // A live heater re-reads a buffer registered in eight chunks while one
  // chunk at a time is tombstoned and registered again, so its seqlock
  // snapshots race the registry's writes and its tombstone reuse.
  constexpr std::size_t kChunks = 8;
  constexpr std::size_t kChunk = 4096;
  const std::vector<std::byte> buf(kChunks * kChunk);
  RegionRegistry reg;
  std::vector<std::size_t> handles;
  for (std::size_t c = 0; c < kChunks; ++c)
    handles.push_back(reg.register_region(buf.data() + c * kChunk, kChunk));
  HeaterConfig cfg;
  cfg.period_ns = 20'000;  // aggressive cadence: maximize the overlap
  HeaterThread heater(reg, cfg);
  heater.start();
  // Churn until the heater has run a few passes; the round cap turns a
  // heater that never runs into the failure below, not a hang.
  std::size_t round = 0;
  while (heater.stats().passes < 16 && round < 1'000'000) {
    const std::size_t c = round++ % kChunks;
    reg.unregister_region(handles[c]);
    handles[c] = reg.register_region(buf.data() + c * kChunk, kChunk);
  }
  heater.stop();
  const auto during = heater.stats();
  EXPECT_GT(during.passes, 0u);
  EXPECT_GT(during.lines_touched, 0u);

  // The churned registry still covers the buffer exactly once.
  EXPECT_EQ(reg.live_regions(), kChunks);
  EXPECT_EQ(reg.live_bytes(), buf.size());
  heater.run_single_pass();
  EXPECT_EQ(heater.stats().bytes_touched - during.bytes_touched, buf.size());
}

TEST(HeaterThread, RestartAfterStop) {
  RegionRegistry reg;
  std::vector<std::byte> a(64);
  reg.register_region(a.data(), a.size());
  HeaterThread heater(reg, HeaterConfig{});
  heater.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  heater.stop();
  const auto first = heater.stats().passes;
  EXPECT_GE(first, 1u);
  heater.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  heater.stop();
  EXPECT_GT(heater.stats().passes, first);
}

}  // namespace
}  // namespace semperm::hotcache

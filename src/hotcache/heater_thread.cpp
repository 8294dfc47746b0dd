#include "hotcache/heater_thread.hpp"

#include <chrono>

#include "common/affinity.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"

namespace semperm::hotcache {

HeaterThread::HeaterThread(RegionRegistry& registry, HeaterConfig config)
    : registry_(registry), config_(config) {}

HeaterThread::~HeaterThread() { stop(); }

void HeaterThread::start() {
  SEMPERM_ASSERT_MSG(!running(), "heater already running");
  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { thread_main(); });
}

void HeaterThread::stop() {
  if (!running()) return;
  {
    MutexLock lock(wake_mutex_);
    stop_requested_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void HeaterThread::pause() {
  paused_.store(true, std::memory_order_release);
}

void HeaterThread::resume() {
  {
    MutexLock lock(wake_mutex_);
    paused_.store(false, std::memory_order_release);
  }
  wake_cv_.notify_all();
}

std::size_t HeaterThread::effective_budget() const {
  const std::size_t override_bytes =
      budget_override_.load(std::memory_order_acquire);
  return override_bytes != 0 ? override_bytes : config_.max_bytes_per_pass;
}

std::uint64_t HeaterThread::touch(const std::byte* base, std::size_t len) {
  // Read the first 4 bytes of each cache line into a discarded sum — the
  // paper's exact heating access pattern. `volatile` keeps the loads alive.
  std::uint64_t sum = 0;
  const std::byte* end = base + len;
  for (const std::byte* p = base; p < end; p += kCacheLine) {
    sum += *reinterpret_cast<const volatile std::uint32_t*>(p);
  }
  return sum;
}

void HeaterThread::run_single_pass() {
  // Fault-injection seam: a stall models the heater losing its core to
  // preemption or starvation for a while before the pass runs.
  if (stall_hook_) {
    if (const std::uint64_t stall_ns = stall_hook_(); stall_ns != 0) {
      stalled_passes_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
    }
  }
  // A native pass is never simulated: its span sits at the calling
  // thread's simulated clock and carries the pass's wall_ns; the coverage
  // counter tracks bytes re-heated per pass.
  SEMPERM_TRACE_SPAN_BEGIN(semperm::obs::Category::kHeater, "heater_pass", 0,
                           registry_.slot_high_water());
  const std::size_t hw = registry_.slot_high_water();
  const std::size_t configured = effective_budget();
  std::size_t budget =
      configured ? configured : static_cast<std::size_t>(-1);
  const std::uint8_t ceiling =
      priority_ceiling_.load(std::memory_order_acquire);
  std::uint64_t lines = 0;
  std::uint64_t bytes = 0;
  std::uint64_t skipped = 0;
  for (std::size_t i = 0; i < hw && budget > 0; ++i) {
    RegionView view;
    if (!registry_.snapshot(i, view)) continue;
    if (view.priority > ceiling) {
      ++skipped;  // degraded: low-priority regions go cold
      continue;
    }
    const std::size_t take = view.len < budget ? view.len : budget;
    touch(view.base, take);
    lines += (take + kCacheLine - 1) / kCacheLine;
    bytes += take;
    budget -= take;
  }
  passes_.fetch_add(1, std::memory_order_relaxed);
  lines_touched_.fetch_add(lines, std::memory_order_relaxed);
  bytes_touched_.fetch_add(bytes, std::memory_order_relaxed);
  skipped_low_priority_.fetch_add(skipped, std::memory_order_relaxed);
  last_pass_end_ns_.store(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now().time_since_epoch())
              .count()),
      std::memory_order_release);
  SEMPERM_TRACE_SPAN_END(semperm::obs::Category::kHeater, "heater_pass", 0,
                         lines, static_cast<double>(bytes));
  SEMPERM_TRACE_COUNTER(semperm::obs::Category::kHeater, "heated_bytes_pass",
                        0, static_cast<double>(bytes));
}

void HeaterThread::thread_main() {
  if (config_.pin_cpu >= 0)
    pinned_.store(pin_current_thread(config_.pin_cpu), std::memory_order_relaxed);
  SEMPERM_TRACE_THREAD_NAME("heater");
  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (!paused_.load(std::memory_order_acquire)) run_single_pass();
    UniqueLock lock(wake_mutex_);
    wake_cv_.wait_for_ns(lock, config_.period_ns, [this] {
      return stop_requested_.load(std::memory_order_acquire);
    });
  }
}

HeaterStats HeaterThread::stats() const {
  HeaterStats s;
  s.passes = passes_.load(std::memory_order_relaxed);
  s.lines_touched = lines_touched_.load(std::memory_order_relaxed);
  s.bytes_touched = bytes_touched_.load(std::memory_order_relaxed);
  s.stalled_passes = stalled_passes_.load(std::memory_order_relaxed);
  s.skipped_low_priority =
      skipped_low_priority_.load(std::memory_order_relaxed);
  s.pinned = pinned_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace semperm::hotcache

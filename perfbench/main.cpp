// perfbench: host-time benchmark of the simulator's entry points.
//
//   perfbench --workload <app_model|mt_decomp|steering> --variant <n>
//             --mode <e2e|trace|record> [--seconds S] [--spans-out FILE]
//
// e2e     runs the workload's fixed input through the entry points until
//         S seconds have passed, timing after each repetition the
//         construction of every call's simulated machine (3 to 25 times,
//         within S/8 seconds), and reports each repetition's wall time,
//         every call's modeled outputs, the setup times, three times of the
//         reference kernel after each repetition, the peak RSS after the
//         first repetition, and the outputs of one (untimed) re-drive per
//         call (the set-up times come from the re-drive's set-up path).
// trace   alternates untraced repetitions with traced re-drives until S
//         seconds have passed, and reports both runs' modeled outputs, the
//         re-drives' per-span host time and modeled per-layer counts. The
//         last traced repetition's raw spans go to --spans-out.
// record  runs the fixed input once and reports its modeled outputs.
//
// The result is one JSON object on stdout; run.py turns it into metrics
// and gates the modeled outputs against the recorded values.

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/simd.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string fields_json(const Fields& f) {
  std::string out = "{";
  for (std::size_t i = 0; i < f.size(); ++i)
    out += (i ? "," : "") + quoted(f[i].first) + ":" + num(f[i].second);
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string provenance_json() {
  std::ostringstream os;
  os << "{\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
     << ",\"trace\":" << SEMPERM_TRACE << ",\"fault\":" << SEMPERM_FAULT
     << ",\"audit\":" << SEMPERM_AUDIT << ",\"simd\":" << SEMPERM_SIMD
     << ",\"native_arch\":" << PERFBENCH_NATIVE_ARCH
     << ",\"lto\":" << PERFBENCH_LTO
     << ",\"compiler\":" << quoted(PERFBENCH_COMPILER)
     << ",\"simd_backend\":" << quoted(semperm::simd::backend())
     << ",\"cpu\":" << quoted(cpu_model())
     << ",\"nproc\":" << std::thread::hardware_concurrency() << "}";
  return os.str();
}

}  // namespace

namespace {

/// A (steady_clock, TSC) pair read back to back, retried until the two
/// steady_clock reads around the TSC read are under a microsecond apart.
std::pair<double, std::uint64_t> paired_read() {
  for (;;) {
    const auto a = Clock::now();
    const std::uint64_t tsc = now_ticks();
    const auto b = Clock::now();
    if (b - a < std::chrono::microseconds(1)) {
      const double ns =
          std::chrono::duration<double, std::nano>(a.time_since_epoch()).count() +
          std::chrono::duration<double, std::nano>(b - a).count() / 2;
      return {ns, tsc};
    }
  }
}

}  // namespace

double ticks_per_ns() {
  static const double rate = [] {
    const auto [ns0, tsc0] = paired_read();
    const auto t0 = Clock::now();
    while (seconds_since(t0) < 0.1) {
    }
    const auto [ns1, tsc1] = paired_read();
    return static_cast<double>(tsc1 - tsc0) / (ns1 - ns0);
  }();
  return rate;
}

namespace {

struct Args {
  std::string workload;
  std::uint64_t variant = 0;
  std::string mode = "e2e";
  double seconds = 10.0;
  std::string spans_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--variant") a.variant = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--mode") a.mode = v;
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--spans-out") a.spans_out = v;
    else return false;
  }
  return !a.workload.empty() &&
         (a.mode == "e2e" || a.mode == "trace" || a.mode == "record");
}

/// Setup samples, interleaved with the measured repetitions so they see
/// the same stretch of host time as the wall times: one after each
/// repetition while setup has used under `budget_s`, at least 3 and at
/// most 25 in all.
class SetupSampler {
 public:
  SetupSampler(const std::vector<Call>& calls, double budget_s)
      : calls_(calls), budget_s_(budget_s) {}

  void after_rep() {
    if (samples_.size() < 25 && (samples_.size() < 3 || spent_s_ < budget_s_)) take();
  }
  std::string finish() {
    while (samples_.size() < 3) take();
    std::string out = "[";
    for (std::size_t i = 0; i < samples_.size(); ++i) out += (i ? "," : "") + num(samples_[i]);
    return out + "]";
  }

 private:
  void take() {
    const auto t0 = Clock::now();
    double total = 0.0;
    for (const Call& c : calls_) total += time_setup(c);
    samples_.push_back(total);
    spent_s_ += seconds_since(t0);
  }

  const std::vector<Call>& calls_;
  double budget_s_;
  std::vector<double> samples_;
  double spent_s_ = 0.0;
};

volatile std::uint64_t g_reference_sink;

/// The reference kernel: a fixed piece of the benchmark's own work, timed
/// between repetitions. It maps 32 MiB of fresh anonymous memory, writes
/// every line of it (first-touch faults and page zeroing), makes 300k
/// random read-modify-writes over it and unmaps it: the allocate, touch
/// and scatter pattern of the simulator's calls, which build their caches,
/// tables and queues anew each time. On a shared host its time drifts
/// with the simulator's (see README.md, "Noise"), so run.py scales wall_s
/// by it. No change to ../src can change this function's work.
double reference_s() {
  constexpr std::size_t kWords = std::size_t{1} << 22;
  constexpr std::size_t kLineWords = 64 / sizeof(std::uint64_t);
  const auto t0 = Clock::now();
  void* p = mmap(nullptr, kWords * sizeof(std::uint64_t), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("reference kernel: mmap failed");
  auto* a = static_cast<std::uint64_t*>(p);
  for (std::size_t i = 0; i < kWords; i += kLineWords) a[i] = i;
  std::uint64_t h = 7;
  for (std::uint64_t i = 0; i < 300'000; ++i) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    a[(h >> 30) & (kWords - 1)] += i;
  }
  g_reference_sink = h + a[kWords / 2];
  munmap(p, kWords * sizeof(std::uint64_t));
  return seconds_since(t0);
}

/// One untraced repetition of the fixed input: its wall time and every
/// call's wall time and modeled outputs.
std::string entry_rep(const std::vector<Call>& calls) {
  std::string rep_calls;
  const auto r0 = Clock::now();
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const auto c0 = Clock::now();
    const Fields f = run_entry(calls[i]);
    const double wall = seconds_since(c0);
    rep_calls += (i ? "," : "") + std::string("{\"name\":") + quoted(calls[i].name) +
                 ",\"wall_s\":" + num(wall) + ",\"out\":" + fields_json(f) + "}";
  }
  return "{\"wall_s\":" + num(seconds_since(r0)) + ",\"calls\":[" + rep_calls + "]}";
}

std::string spans_json(const Tracer& tr, double tpn) {
  std::string out = "{";
  bool first = true;
  for (int id = 0; id < kSpanCount; ++id) {
    const SpanStat& s = tr.stats()[id];
    if (s.calls == 0) continue;
    out += (first ? "" : ",") + quoted(kSpanNames[id]) + ":[" +
           num(static_cast<double>(s.calls)) + "," +
           num(static_cast<double>(s.total_ticks) / tpn) + "," +
           num(static_cast<double>(s.self_ticks) / tpn) + "]";
    first = false;
  }
  return out + "}";
}

using LastTraces = std::vector<std::pair<std::string, Tracer>>;

void write_raw_spans(const std::string& path, const LastTraces& last, double tpn) {
  std::ofstream out(path);
  out << "call,span,parent,start_ns,end_ns\n";
  for (const auto& [name, tr] : last) {
    if (tr.raw().empty()) continue;
    std::uint64_t origin = tr.raw().front().start;
    for (const RawSpan& r : tr.raw()) origin = std::min(origin, r.start);
    for (const RawSpan& r : tr.raw())
      out << name << ',' << kSpanNames[r.id] << ',' << kSpanNames[r.parent] << ','
          << num(static_cast<double>(r.start - origin) / tpn) << ','
          << num(static_cast<double>(r.end - origin) / tpn) << '\n';
  }
}

/// One traced repetition. Per call: the re-drive's modeled outputs and
/// counts, per-span [calls, total_ns, self_ns], and the timer check: every
/// span closed, and the root span (in TSC ticks) agrees with steady_clock
/// around the call within 20 us + 0.01%. Self times add up to the root by
/// construction (Tracer::end charges each span to exactly one parent), so
/// this check is what ties the per-layer seconds to wall time. The call's
/// Tracers are kept in `last`.
std::string traced_rep(const std::vector<Call>& calls, double tpn, LastTraces& last) {
  last.clear();
  std::string rep_calls;
  const auto r0 = Clock::now();
  for (std::size_t i = 0; i < calls.size(); ++i) {
    Tracer tr;
    Fields counts;
    const auto c0 = Clock::now();
    const Fields f = redrive(calls[i], tr, counts);
    const double wall = seconds_since(c0);
    const double root_s = static_cast<double>(tr.stats()[kRoot].total_ticks) / tpn * 1e-9;
    const bool timer_ok = tr.balanced() && std::abs(root_s - wall) <= 20e-6 + 1e-4 * wall;
    rep_calls += (i ? "," : "") + std::string("{\"name\":") + quoted(calls[i].name) +
                 ",\"wall_s\":" + num(wall) + ",\"root_s\":" + num(root_s) +
                 ",\"timer_ok\":" + (timer_ok ? "true" : "false") +
                 ",\"out\":" + fields_json(f) + ",\"counts\":" + fields_json(counts) +
                 ",\"spans\":" + spans_json(tr, tpn) + "}";
    last.emplace_back(calls[i].name, std::move(tr));
  }
  return "{\"wall_s\":" + num(seconds_since(r0)) + ",\"calls\":[" + rep_calls + "]}";
}

int run(const Args& a) {
  const std::vector<Call> calls = workload_calls(a.workload, a.variant);
  if (calls.empty()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  std::string json = "{\"workload\":" + quoted(a.workload) +
                     ",\"variant\":" + std::to_string(a.variant) +
                     ",\"mode\":" + quoted(a.mode) +
                     ",\"provenance\":" + provenance_json();
  std::string reps;
  const auto start = Clock::now();
  const auto more = [&](int rep) { return rep == 0 || seconds_since(start) < a.seconds; };
  if (a.mode == "record") {
    reps = entry_rep(calls);
  } else if (a.mode == "e2e") {
    SetupSampler setup(calls, a.seconds / 8);
    std::string reference;
    for (int rep = 0; more(rep); ++rep) {
      reps += (rep ? "," : "") + entry_rep(calls);
      if (rep == 0) {
        // The fixed input is deterministic, so the first repetition sets
        // the entry points' high-water mark; read it before the set-up
        // samples, the reference kernel and the re-drive below allocate.
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        json += ",\"peak_rss_kib\":" + num(static_cast<double>(ru.ru_maxrss));
      }
      setup.after_rep();
      for (int k = 0; k < 3; ++k) reference += (reference.empty() ? "" : ",") + num(reference_s());
    }
    json += ",\"setup_s\":" + setup.finish();
    json += ",\"reference_s\":[" + reference + "]";
    // setup_s is timed through the re-drive's set-up path, so one full
    // re-drive per call shows that path still builds what the entry point
    // builds: run.py withholds setup_s if its outputs differ.
    std::string redrives;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      Tracer tr;
      Fields counts;
      redrives += (i ? "," : "") + std::string("{\"name\":") + quoted(calls[i].name) +
                  ",\"out\":" + fields_json(redrive(calls[i], tr, counts)) + "}";
    }
    json += ",\"redrive\":[" + redrives + "]";
  } else {
    // Untraced and traced repetitions alternate, so both see the same
    // stretch of host time and their ratio is the tracing overhead.
    const double tpn = ticks_per_ns();
    LastTraces last;
    std::string traced;
    for (int rep = 0; more(rep); ++rep) {
      reps += (rep ? "," : "") + entry_rep(calls);
      traced += (rep ? "," : "") + traced_rep(calls, tpn, last);
    }
    json += ",\"traced\":[" + traced + "]";
    if (!a.spans_out.empty()) write_raw_spans(a.spans_out, last, tpn);
  }
  json += ",\"reps\":[" + reps + "]";
  json += "}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --variant <n> "
                 "--mode <e2e|trace|record> [--seconds S] [--spans-out FILE]\n");
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}

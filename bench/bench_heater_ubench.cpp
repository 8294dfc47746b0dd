// Reproduces the §4.3 cache-heater micro-benchmark: per-access time of a
// random walk over a fixed region, with and without the heater keeping the
// region in the shared cache.
//
// Paper numbers: Sandy Bridge 47.5 ns -> 22.9 ns; Broadwell 38.5 ns ->
// 22.8 ns. Expected shape here: heating roughly halves the random-access
// time on both architectures (random accesses defeat all prefetchers, so
// this isolates pure temporal locality), and the un-heated Broadwell time
// is *lower* than Sandy Bridge's because its much larger LLC retains part
// of the region across the emulated compute phases.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "workloads/heater_ubench.hpp"

int main(int argc, char** argv) {
  using namespace semperm;
  Cli cli("bench_heater_ubench", "§4.3 heater micro-benchmark (simulated)");
  bench::add_standard_flags(cli);
  cli.add_int("region-kib", 256, "Heated region size in KiB");
  if (!cli.parse(argc, argv)) return 0;
  bench::configure_report(cli);
  const bool quick = cli.flag("quick");

  Table table({"Architecture", "engine", "cold (ns/access)",
               "heated (ns/access)", "improvement (x)", "coverage",
               "heater LLC lines", "invals", "intervs"});
  for (const char* arch_name : {"sandybridge", "broadwell", "nehalem"}) {
    workloads::HeaterUbenchParams p;
    p.seed = bench::bench_seed(p.seed);
    p.arch = cachesim::arch_by_name(arch_name);
    p.region_bytes = static_cast<std::size_t>(cli.get_int("region-kib")) * 1024;
    if (quick) {
      p.iterations = 4;
      p.accesses_per_iteration = 512;
    }
    // Analytic fast path and the execution-driven heater core, side by
    // side: the exec rows additionally report measured coverage, LLC
    // occupancy and protocol events (non-zero by construction — the app
    // core's pollution races the heater core every iteration).
    for (const auto engine :
         {workloads::HeaterEngine::kAnalytic,
          workloads::HeaterEngine::kExecution}) {
      p.engine = engine;
      p.write_fraction =
          engine == workloads::HeaterEngine::kExecution ? 0.1 : 0.0;
      const auto r = workloads::run_heater_ubench(p);
      const bool exec = engine == workloads::HeaterEngine::kExecution;
      table.add_row({p.arch.name, exec ? "exec" : "analytic",
                     Table::num(r.cold_ns_per_access, 1),
                     Table::num(r.heated_ns_per_access, 1),
                     Table::num(r.improvement(), 2),
                     exec ? Table::num(r.measured_coverage, 3) : "-",
                     exec ? Table::num(std::uint64_t{r.heater_llc_lines}) : "-",
                     exec ? Table::num(r.coherence.invalidations) : "-",
                     exec ? Table::num(r.coherence.interventions) : "-"});
    }
  }
  bench::emit("Heater micro-benchmark: random-access iteration time", table,
              cli.flag("csv"));
  std::fputs(
      "Paper reference: SandyBridge 47.5 -> 22.9 ns, Broadwell 38.5 -> 22.8 ns\n",
      stdout);
  return bench::finish_report();
}

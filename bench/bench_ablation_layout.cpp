// Ablation: memory-layout design choices (DESIGN.md decisions 2 and 3).
//
// Part 1 — node address policy: the study models a long-lived MPI
// process's allocator with *scattered* node addresses. Re-running the
// depth sweep with *sequential* addresses shows how much of the baseline
// list's deficit is allocator scatter (a sequential baseline streams well
// and closes much of the gap) — evidence that the LLA's benefit on real
// systems comes from making locality *structural* instead of accidental.
//
// Part 2 — hole management: the paper invalidates deleted slots in place
// (tombstones) rather than compacting. Deleting every other entry doubles
// the slots a search scans; this part quantifies the tombstone tax on the
// simulated substrate (slots scanned, cycles per search).
//
// Also prints the Fig.-2 packing report for the 24-byte / 16-byte entries,
// on stdout only: the packing is fixed at compile time (static_asserted),
// so the --json report carries nothing of it.

#include <cstdio>

#include "bench/bench_util.hpp"
#include "cachesim/mem_model.hpp"
#include "match/entry.hpp"
#include "match/lla_queue.hpp"
#include "memlayout/layout.hpp"
#include "workloads/osu.hpp"

namespace {

using namespace semperm;

void print_layout_report() {
  using memlayout::LayoutSpec;
  LayoutSpec posted{"PostedEntry (PRQ, Fig. 2)", sizeof(match::PostedEntry), {}};
  posted.fields = {
      SEMPERM_FIELD(match::PostedEntry, tag),
      SEMPERM_FIELD(match::PostedEntry, rank),
      SEMPERM_FIELD(match::PostedEntry, ctx),
      SEMPERM_FIELD(match::PostedEntry, tag_mask),
      SEMPERM_FIELD(match::PostedEntry, rank_mask),
      SEMPERM_FIELD(match::PostedEntry, req),
  };
  LayoutSpec unexpected{"UnexpectedEntry (UMQ)", sizeof(match::UnexpectedEntry), {}};
  unexpected.fields = {
      SEMPERM_FIELD(match::UnexpectedEntry, tag),
      SEMPERM_FIELD(match::UnexpectedEntry, rank),
      SEMPERM_FIELD(match::UnexpectedEntry, ctx),
      SEMPERM_FIELD(match::UnexpectedEntry, req),
  };
  std::fputs(posted.render().c_str(), stdout);
  std::fputs(unexpected.render().c_str(), stdout);
  std::printf("LLA node bytes: k=2 -> %zu, k=8 -> %zu, k=32 -> %zu (PRQ)\n\n",
              match::lla_node_bytes(2, sizeof(match::PostedEntry)),
              match::lla_node_bytes(8, sizeof(match::PostedEntry)),
              match::lla_node_bytes(32, sizeof(match::PostedEntry)));
}

void run_policy_part(bool quick, bool csv) {
  std::vector<std::string> headers{"depth"};
  for (const char* q : {"baseline", "LLA-8"})
    for (const char* pol : {"scattered", "sequential"})
      headers.push_back(std::string(q) + " " + pol);
  Table table(headers);
  for (std::size_t depth : {64, 1024, 8192}) {
    std::vector<std::string> row{Table::num(std::uint64_t{depth})};
    for (const char* label : {"baseline", "lla-8"}) {
      for (auto policy : {memlayout::AddressPolicy::kScattered,
                          memlayout::AddressPolicy::kSequential}) {
        workloads::OsuParams p;
        p.seed = bench::bench_seed(p.seed);
        p.fault = bench::fault_plan();
        p.queue = match::QueueConfig::from_label(label);
        p.queue.node_policy = policy;
        p.msg_bytes = 1;
        p.queue_depth = depth;
        p.iterations = quick ? 2 : 6;
        p.warmup_iterations = 1;
        row.push_back(Table::num(workloads::run_osu_bw(p).bandwidth_mibps, 4));
      }
    }
    table.add_row(std::move(row));
  }
  bench::emit(
      "Layout ablation 1: node address policy, 1 B messages, Sandy Bridge "
      "(MiBps)",
      table, csv);
}

void run_hole_part(bool quick, bool csv) {
  Table table({"LLA k", "live entries", "slots scanned/search",
               "entries inspected/search", "cycles/search"});
  const std::size_t live = quick ? 256 : 1024;
  for (std::size_t k : {4, 8, 32}) {
    cachesim::Hierarchy hier(cachesim::sandy_bridge());
    cachesim::SimMem mem(hier);
    memlayout::AddressSpace space;
    auto cfg = match::QueueConfig::from_label("lla-" + std::to_string(k));
    // The miss probes stay queued as unexpected messages, so the queue
    // holds their addresses: the requests outlive the engine.
    const std::size_t probes = 16;
    std::vector<match::MatchRequest> misses(probes);
    auto bundle = match::make_engine(mem, space, cfg);

    // Post 2*live decoys, then cancel every other one by matching it,
    // leaving `live` entries interleaved with `live` holes.
    std::vector<match::MatchRequest> decoys(2 * live);
    for (std::size_t i = 0; i < decoys.size(); ++i) {
      decoys[i] = match::MatchRequest(match::RequestKind::kRecv, i);
      bundle->post_recv(
          match::Pattern::make(2, 100 + static_cast<std::int32_t>(i), 0),
          &decoys[i]);
    }
    for (std::size_t i = 1; i < decoys.size(); i += 2) {
      match::MatchRequest msg(match::RequestKind::kUnexpected, i);
      bundle->incoming(
          match::Envelope{100 + static_cast<std::int32_t>(i), 2, 0}, &msg);
    }

    // Measure a miss search (walks everything: live entries and holes).
    bundle->prq().reset_stats();
    const Cycles mark = mem.cycles();
    for (std::size_t i = 0; i < probes; ++i) {
      misses[i] = match::MatchRequest(match::RequestKind::kUnexpected, i);
      bundle->incoming(match::Envelope{1, 1, 0}, &misses[i]);  // no PRQ match
    }
    const auto& st = bundle->prq().stats();
    table.add_row(
        {Table::num(std::uint64_t{k}), Table::num(std::uint64_t{live}),
         Table::num(static_cast<double>(st.slots_scanned) /
                        static_cast<double>(st.searches),
                    1),
         Table::num(static_cast<double>(st.entries_inspected) /
                        static_cast<double>(st.searches),
                    1),
         Table::num(static_cast<double>(mem.cycles() - mark) /
                        static_cast<double>(probes),
                    0)});
  }
  bench::emit("Layout ablation 2: tombstone-hole tax on searches", table, csv);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_ablation_layout",
          "Layout ablations: address policy and hole management");
  bench::add_standard_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  bench::configure_report(cli);
  print_layout_report();
  run_policy_part(cli.flag("quick"), cli.flag("csv"));
  run_hole_part(cli.flag("quick"), cli.flag("csv"));
  return bench::finish_report();
}

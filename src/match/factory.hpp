// semperm/match/factory.hpp
//
// Runtime selection of the matching data structure. A QueueConfig names a
// structure (and its parameters); make_engine() builds a fully wired
// MatchEngine plus the arena and pools backing it. When the memory model is
// simulated, the arena is mapped into it automatically so simulated
// addresses resolve.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/mem_policy.hpp"
#include "match/binned_queue.hpp"
#include "match/engine.hpp"
#include "match/four_dim_queue.hpp"
#include "match/list_queue.hpp"
#include "match/lla_queue.hpp"
#include "memlayout/arena.hpp"
#include "memlayout/block_pool.hpp"

namespace semperm::match {

enum class QueueKind {
  kBaselineList,  // single linked list, one entry per node (MPICH style)
  kLla,           // linked list of arrays (the paper's tool), K configurable
  kOmpiBins,      // per-source bins (Open MPI style)
  kHashBins,      // full-criteria hash bins (Flajslik et al. style)
  kFourDim,       // 4-D rank-decomposed trie (Zounmevo & Afsahi style)
};

/// The paper's "linked list of large arrays" FDS variant (§4.5).
inline constexpr std::size_t kLlaLargeEntries = 512;

struct QueueConfig {
  QueueKind kind = QueueKind::kBaselineList;
  /// Entries per array for kLla (the paper sweeps 2..32, plus 512 "large").
  std::size_t lla_entries = 8;
  /// Bin count: communicator size for kOmpiBins and kFourDim, table size
  /// for kHashBins.
  std::size_t bins = 256;
  /// Node address policy (DESIGN.md decision 2). Scattered models a
  /// long-lived general-purpose allocator; sequential is the ablation.
  memlayout::AddressPolicy node_policy = memlayout::AddressPolicy::kScattered;
  /// Backing arena capacity.
  std::size_t arena_bytes = 8ull * 1024 * 1024;
  /// Seed for the scattered node-address shuffle.
  std::uint64_t layout_seed = 0xfeedb0a7ULL;

  /// Short label for tables: "baseline", "LLA-8", "ompi", "hash-256".
  std::string label() const;

  /// Parse a label: "baseline", "lla-<k>", "lla" (k=8), "lla-large",
  /// "ompi", "hash" or "hash-<bins>". Throws std::invalid_argument.
  static QueueConfig from_label(const std::string& label);
};

/// Everything backing one engine; keep it alive as long as the engine.
template <MemoryModel Mem>
struct EngineBundle {
  std::unique_ptr<memlayout::Arena> arena;
  std::vector<std::unique_ptr<memlayout::BlockPool>> pools;
  std::unique_ptr<MatchEngine<Mem>> engine;

  MatchEngine<Mem>& operator*() { return *engine; }
  const MatchEngine<Mem>& operator*() const { return *engine; }
  MatchEngine<Mem>* operator->() { return engine.get(); }
  const MatchEngine<Mem>* operator->() const { return engine.get(); }
};

namespace detail {

template <class Entry, MemoryModel Mem>
std::unique_ptr<QueueIface<Entry, Mem>> make_queue(
    Mem& mem, const QueueConfig& cfg, memlayout::Arena& arena,
    std::vector<std::unique_ptr<memlayout::BlockPool>>& pools,
    std::uint64_t seed_salt) {
  using memlayout::BlockPool;
  const std::uint64_t seed = cfg.layout_seed ^ seed_salt;
  switch (cfg.kind) {
    case QueueKind::kBaselineList: {
      pools.push_back(std::make_unique<BlockPool>(
          arena, ListQueue<Entry, Mem>::node_bytes(), 4 * kCacheLine,
          cfg.node_policy, /*chunk_blocks=*/64, seed));
      return std::make_unique<ListQueue<Entry, Mem>>(mem, *pools.back());
    }
    case QueueKind::kLla: {
      const std::size_t nb = lla_node_bytes(cfg.lla_entries, sizeof(Entry));
      pools.push_back(std::make_unique<BlockPool>(
          arena, nb, lla_node_align(nb), cfg.node_policy, /*chunk_blocks=*/64,
          seed));
      return std::make_unique<LlaQueue<Entry, Mem>>(mem, *pools.back(),
                                                    cfg.lla_entries);
    }
    case QueueKind::kOmpiBins:
    case QueueKind::kHashBins: {
      pools.push_back(std::make_unique<BlockPool>(
          arena, sizeof(typename BinnedQueue<Entry, Mem>::Node), kCacheLine,
          cfg.node_policy, /*chunk_blocks=*/64, seed));
      const BinPolicy policy = cfg.kind == QueueKind::kOmpiBins
                                   ? BinPolicy::kBySource
                                   : BinPolicy::kByHash;
      return std::make_unique<BinnedQueue<Entry, Mem>>(mem, *pools.back(),
                                                       policy, cfg.bins);
    }
    case QueueKind::kFourDim: {
      pools.push_back(std::make_unique<BlockPool>(
          arena, sizeof(typename FourDimQueue<Entry, Mem>::Node), kCacheLine,
          cfg.node_policy, /*chunk_blocks=*/64, seed));
      return std::make_unique<FourDimQueue<Entry, Mem>>(mem, *pools.back(),
                                                        arena, cfg.bins);
    }
  }
  SEMPERM_ASSERT_MSG(false, "unhandled queue kind");
  return nullptr;
}

}  // namespace detail

/// Build a matching engine per `cfg`. For simulated memory models the
/// backing arena is mapped into `mem` so its pointers translate.
template <MemoryModel Mem>
EngineBundle<Mem> make_engine(Mem& mem, memlayout::AddressSpace& space,
                              const QueueConfig& cfg) {
  EngineBundle<Mem> bundle;
  bundle.arena = std::make_unique<memlayout::Arena>(space, cfg.arena_bytes);
  if constexpr (Mem::kSimulated) mem.map_arena(*bundle.arena);
  auto prq = detail::make_queue<PostedEntry, Mem>(mem, cfg, *bundle.arena,
                                                  bundle.pools, 0x9e37);
  auto umq = detail::make_queue<UnexpectedEntry, Mem>(mem, cfg, *bundle.arena,
                                                      bundle.pools, 0x79b9);
  bundle.engine =
      std::make_unique<MatchEngine<Mem>>(mem, std::move(prq), std::move(umq));
  return bundle;
}

}  // namespace semperm::match

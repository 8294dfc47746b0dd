// semperm/cachesim/mem_model.hpp
//
// SimMem: the simulated MemoryModel policy. Translates real pointers
// (which vary run-to-run) into deterministic simulated addresses via the
// arenas the structures allocate from, drives the cache hierarchy, and
// accumulates modelled cycles including explicit compute work charged by
// the data-structure code (entry comparisons).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "cachesim/hierarchy.hpp"
#include "common/assert.hpp"
#include "common/mem_policy.hpp"
#include "common/types.hpp"
#include "memlayout/arena.hpp"

namespace semperm::cachesim {

class SimMem {
 public:
  static constexpr bool kSimulated = true;

  explicit SimMem(Hierarchy& hierarchy) : hier_(&hierarchy) {}

  /// Register an arena whose pointers this model must translate. Arenas
  /// must outlive the SimMem.
  void map_arena(const memlayout::Arena& arena) { arenas_.push_back(&arena); }

  void read(const void* p, std::size_t n) { access(p, n, /*write=*/false); }

  void write(const void* p, std::size_t n) { access(p, n, /*write=*/true); }

  /// Run `f`, recording each read and write it issues, and charge them
  /// when it returns as one Hierarchy batch, which the hierarchy may
  /// replay from the record of a clean repeat (DESIGN.md §10.3). The total
  /// is what charging them one by one gives. Batches do not nest.
  template <class F>
  void batch(F&& f) {
    SEMPERM_ASSERT_MSG(!batching_, "SimMem batches do not nest");
    batch_.clear();
    batching_ = true;
    struct EndBatch {
      bool& batching;
      ~EndBatch() { batching = false; }
    } end{batching_};
    std::forward<F>(f)();
    cycles_ += hier_->access(std::span<const DemandAccess>(batch_));
  }

  /// Charge pure compute cycles (e.g. tag/rank comparison ALU work).
  void work(Cycles c) { cycles_ += c; }

  Cycles cycles() const { return cycles_; }
  void reset_cycles() { cycles_ = 0; }

  /// Cycles accumulated since `mark`; pattern: mark = cycles(); ...; delta.
  Cycles since(Cycles mark) const { return cycles_ - mark; }

  Hierarchy& hierarchy() { return *hier_; }
  const Hierarchy& hierarchy() const { return *hier_; }

  Addr translate(const void* p) const {
    for (const auto* a : arenas_)
      if (a->contains(p)) return a->sim_addr(p);
    SEMPERM_ASSERT_MSG(false, "SimMem: pointer not in any mapped arena");
    return 0;  // unreachable
  }

 private:
  void access(const void* p, std::size_t n, bool write) {
    if (batching_) {
      // The batch keeps its capacity: a repeated walk allocates nothing.
      batch_.push_back(DemandAccess{translate(p), n, write});
      return;
    }
    cycles_ += hier_->access(translate(p), n, write);
  }

  Hierarchy* hier_;
  std::vector<const memlayout::Arena*> arenas_;
  Cycles cycles_ = 0;
  bool batching_ = false;
  std::vector<DemandAccess> batch_;
};

static_assert(MemoryModel<SimMem>);

}  // namespace semperm::cachesim

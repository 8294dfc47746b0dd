// Seeded fixture for semperm_analyze: audit-mesi-bypass.
//
// Lives under a `src/coherence` path fragment so the MESI routing check
// applies. The directory entry is the only coherence record, so a write to
// its sharers/owner/modified fields is a MESI state change. Expected
// findings: audit-mesi-bypass x4 (rollback_for_test, reset x2, free_poke).
// The writes inside the audited mutators CoherentHierarchy::set_state /
// drop_sharer must stay clean — this is exactly the resolution grep could
// not do — and so must reads of the fields anywhere.

#include <cstdint>
#include <vector>

namespace semperm::fixture {

struct DirEntry {
  std::uint64_t sharers = 0;
  int owner = -1;
  bool modified = false;
};

class CoherentHierarchy {
 public:
  void set_state(int core, std::uint64_t line, bool dirty) {
    // Negative control: the audited mutator itself writes the entry.
    DirEntry& e = dir_.at(line);
    e.sharers |= std::uint64_t{1} << core;
    e.owner = core;
    e.modified = dirty;
  }

  void drop_sharer(int core, std::uint64_t line) {
    // Negative control: the other audited mutator.
    DirEntry* e = &dir_.at(line);
    e->sharers &= ~(std::uint64_t{1} << core);
    if (e->owner == core) e->modified = false;
  }

  bool owned(std::uint64_t line) const {
    // Negative control: reads are not writes.
    return dir_.at(line).owner >= 0 && dir_.at(line).modified == false;
  }

  void rollback_for_test(int core, std::uint64_t line) {
    dir_.at(line).sharers ^= std::uint64_t{1} << core;
  }

  void reset(std::uint64_t line) {
    DirEntry& e = dir_.at(line);
    e.owner = -1;
    ++e.owner;
  }

 private:
  std::vector<DirEntry> dir_;
};

void free_poke(DirEntry& e) { e.modified = true; }

}  // namespace semperm::fixture

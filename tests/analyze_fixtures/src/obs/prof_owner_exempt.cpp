// Seeded fixture for semperm_analyze: hotpath-alloc negative control
// for the observability probes (DESIGN.md §16).
//
// Expected findings: hotpath-alloc x1 — the push_back at the tail of the
// hot probe. Everything inside SEMPERM_OWNER_SCOPE arguments must stay
// clean: the macro expands to nothing when SEMPERM_TRACE is 0, so —
// exactly like SEMPERM_AUDIT_ONLY — allocation-looking calls in its
// arguments never run in Release and must not count against the hot path.

#include <vector>

namespace semperm::fixture {

class ObservedProbeRing {
 public:
  SEMPERM_HOT int probe(int key) {
    SEMPERM_OWNER_SCOPE((owner_log_.emplace_back(key), kOwnerWorkload));
    scratch_.push_back(key);  // the one genuine finding
    return key;
  }

 private:
  std::vector<int> scratch_;
  std::vector<int> owner_log_;
};

}  // namespace semperm::fixture

// Cross-pass testable-fault cache of the removal engine.
//
// The removal engine caches every *testable* verdict (from SAT, random
// simulation, or witness dropping) keyed by stable fault identity —
// GateId/ConnId are tombstoned, never reused, so (site, id, stuck)
// names the same structural site for the whole run. Cached verdicts
// survive removal passes until a committed network edit intersects the
// fault's region: a verdict for fault f depends only on the subgraph of
// gates sharing an output path with f's source, so it survives an edit
// iff source(f) ∉ TFI(TFO(touched)).
//
// Coordinator-only state: the coordinator marks the pass's cache hits
// before the lanes start, fills the cache from the pass's testable
// verdicts at the pass barrier and invalidates it after the commit.
// Lanes never touch it, so it needs no lock. It is not checkpointed: a
// resumed run starts it empty, and since every entry only skips a fault
// already proved testable, the removed faults do not depend on it.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/atpg/fault.hpp"
#include "src/netlist/network.hpp"

namespace kms {

/// Stable identity of a fault across network edits.
inline std::uint64_t fault_cache_key(const Fault& f) {
  const std::uint64_t id = f.site == Fault::Site::kStem
                               ? static_cast<std::uint64_t>(f.gate.value())
                               : static_cast<std::uint64_t>(f.conn.value());
  return (f.site == Fault::Site::kBranch ? 1ull << 63 : 0ull) |
         (f.stuck ? 1ull << 62 : 0ull) | id;
}

/// TFI(TFO(touched)) over the union of the current connectivity and the
/// trace's severed edges, as a gate-capacity-indexed membership mask.
/// Cached verdicts whose fault source lies inside are stale: the verdict
/// was computed on the pre-edit structure, and the path connecting it to
/// a touched gate may be exactly what the edit cut.
std::vector<bool> edit_region(const Network& net, const TransformTrace& trace);

class FaultCache {
 public:
  /// True iff a testable verdict for `f` is cached.
  bool contains(const Fault& f) const {
    return map_.count(fault_cache_key(f)) != 0;
  }

  /// Record a testable verdict for `f` whose source gate is `source`
  /// (the anchor the invalidation traversal tests). Idempotent.
  void insert(const Fault& f, GateId source) {
    map_.emplace(fault_cache_key(f), source);
  }

  /// Drop every cached verdict whose fault region intersects the edited
  /// gates. Returns the number of entries invalidated.
  std::size_t invalidate(const Network& net, const TransformTrace& trace);

 private:
  std::unordered_map<std::uint64_t, GateId> map_;  ///< key -> source gate
};

}  // namespace kms

// Cross-pass testable-fault cache, sharded for concurrent writers.
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
// Sharding: the engine's lanes insert concurrently while classifying,
// so entries are spread over mutex-guarded shards by a mixed hash of
// the key. Lookups and insertions take one uncontended shard lock (a
// one-lane run pays a handful of nanoseconds for it); invalidation is
// coordinator-only, between passes, while no lane runs.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/atpg/fault.hpp"
#include "src/netlist/network.hpp"
#include "src/netlist/transform.hpp"

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

class ShardedFaultCache {
 public:
  /// True iff a testable verdict for `f` is cached.
  bool contains(const Fault& f) const {
    const std::uint64_t key = fault_cache_key(f);
    const Shard& s = shard_of(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.map.count(key) != 0;
  }

  /// Record a testable verdict for `f` whose source gate is `source`
  /// (the anchor the invalidation traversal tests). Idempotent.
  void insert(const Fault& f, GateId source) {
    const std::uint64_t key = fault_cache_key(f);
    Shard& s = shard_of(key);
    std::lock_guard<std::mutex> lock(s.mutex);
    s.map.emplace(key, source);
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mutex);
      n += s.map.size();
    }
    return n;
  }

  /// Drop every cached verdict whose fault region intersects the edited
  /// gates. Coordinator-only: must not race classification. Returns the
  /// number of entries invalidated.
  std::size_t invalidate(const Network& net, const TransformTrace& trace);

  /// Serialize the cache as sorted "key:source" hex lines for a
  /// checkpoint. Sorted so equal cache contents always serialize to
  /// equal bytes regardless of insertion order.
  std::string save_state() const;

  /// Replace the contents with a save_state() string. Throws
  /// std::runtime_error on malformed input.
  void load_state(const std::string& state);

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::uint64_t, GateId> map;
  };

  static constexpr std::size_t kShards = 16;

  Shard& shard_of(std::uint64_t key) {
    return shards_[(key * 0x9E3779B97F4A7C15ull) >> 60];
  }
  const Shard& shard_of(std::uint64_t key) const {
    return shards_[(key * 0x9E3779B97F4A7C15ull) >> 60];
  }

  std::array<Shard, kShards> shards_;
};

}  // namespace kms

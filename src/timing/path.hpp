// Paths and lazy longest-first path enumeration.
//
// A path (Definition 4.2) is an alternating sequence of connections and
// gates from a primary input to a primary output. Its length
// (Definition 4.6) is the sum of gate and connection delays along it;
// because the paper's Section III example gives inputs distinct arrival
// times, the enumerator ranks paths by arrival(source) + length, which
// is the quantity that determines the circuit delay.
//
// PathEnumerator produces IO-paths in non-increasing rank using best-
// first search over partial paths with an exact completion bound (the
// longest suffix from each gate to any output), so the k-th call to
// next() returns the k-th longest path without enumerating more than k
// partial expansions per emitted path. This is how both the computed-
// delay routine and the KMS loop visit "the longest paths" lazily.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/ids.hpp"
#include "src/netlist/network.hpp"

namespace kms {

struct Path {
  GateId source;               ///< primary input the path starts at
  std::vector<ConnId> conns;   ///< conns[i] feeds gates[i]
  std::vector<GateId> gates;   ///< gates along the path; back() is kOutput
  double length = 0.0;         ///< arrival(source) + sum of delays

  bool operator==(const Path& other) const = default;
};

/// Recompute a path's length field from the network (for validation).
double path_length(const Network& net, const Path& p);

/// Human-readable "a0 -> g3(and) -> ... -> c2" rendering.
std::string format_path(const Network& net, const Path& p);

class PathEnumerator {
 public:
  explicit PathEnumerator(const Network& net);

  /// Seed the completion bounds from an externally maintained suffix
  /// table (see IncrementalSta::suffix()) instead of recomputing them
  /// with a full backward pass. The table is held by reference — not
  /// copied — so a long-lived enumerator rides the incremental engine's
  /// in-place repairs across reseed() calls; the caller guarantees the
  /// vector outlives the enumerator. The table must equal
  /// compute_suffix(net) exactly — the incremental engine guarantees
  /// this bit-for-bit, so enumeration order (including heap
  /// tie-breaking) is identical to the unseeded constructor's.
  PathEnumerator(const Network& net, const std::vector<double>& suffix);

  // Not copyable/movable: the unseeded constructor points suffix_ at
  // the enumerator's own table, which a default copy/move would leave
  // aimed at the source object. Long-lived consumers hold one in a
  // std::optional and emplace it.
  PathEnumerator(const PathEnumerator&) = delete;
  PathEnumerator& operator=(const PathEnumerator&) = delete;

  /// Next path in non-increasing length order; nullopt when exhausted.
  std::optional<Path> next();

  /// Restart enumeration against the network's current state without
  /// reconstructing the enumerator: discards the frontier (keeping its
  /// allocations) and re-seeds one partial path per reachable primary
  /// input. With the table-seeded constructor the caller's repaired
  /// suffix table is reread in place; with the unseeded constructor the
  /// owned table is recomputed first. The restarted sequence is
  /// identical to a freshly constructed enumerator's.
  void reseed();

  /// Gate visits spent by the most recent (re)seeding pass — the cost a
  /// persistent enumerator pays per KMS iteration instead of a full
  /// suffix recompute plus an O(capacity) table copy.
  std::uint64_t last_seed_visits() const { return last_seed_visits_; }

 private:
  struct Node {
    ConnId via;       // connection taken to reach `gate`
    std::int32_t parent;  // index into nodes_, -1 for path sources
    GateId gate;      // current endpoint (sink of `via` unless source)
    double head;      // arrival(source) + delays up to & incl. gate delay
  };
  struct QueueItem {
    double bound;     // head + longest suffix from gate
    std::int32_t node;
    friend bool operator<(const QueueItem& a, const QueueItem& b) {
      return a.bound < b.bound;  // max-heap by bound
    }
  };

  void expand(std::int32_t node_idx);
  void seed_sources();

  const Network& net_;
  std::vector<double> own_suffix_;      // engaged by the unseeded ctor
  const std::vector<double>* suffix_;   // longest gate-output-to-PO length
  std::vector<Node> nodes_;
  std::vector<QueueItem> heap_;
  std::uint64_t last_seed_visits_ = 0;
};

/// All IO-paths whose length is within `epsilon` of the maximum.
std::vector<Path> longest_paths(const Network& net, double epsilon = 1e-9,
                                std::size_t max_paths = 10000);

}  // namespace kms

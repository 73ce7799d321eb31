// Incremental static timing analysis (the ROADMAP's answer to the
// quadratic wall: one full pass per KMS iteration becomes a dirty-cone
// repair proportional to the edited region).
//
// IncrementalSta owns the two tables the KMS loop reads: arrival (the
// event times viability checks against, and the forward half of every
// path length) and suffix (the longest completion from each gate's
// output to any primary output — the compact boundary timing model of
// the gate's untouched fanout region, after Li et al., "Static Timing
// Model Extraction for Combinational Circuits"), plus the delay bound.
// apply() repairs both in place from a TransformTrace: only the
// transitive fanout of touched gates is re-evaluated for arrival, only
// the transitive fanin of gates whose suffix changed is re-evaluated
// backward, and propagation stops early wherever a repaired value comes
// back unchanged. Required times and slack are not maintained; the
// analysis report computes them from scratch (compute_timing).
//
// Bit-identity contract: every repaired entry equals the from-scratch
// value under exact double equality. This holds by construction — the
// repair evaluates the same per-gate kernels (src/timing/sta.hpp) over
// the same operands in the same association order as the full passes,
// and IEEE max/add are deterministic — and it is what lets the KMS
// loop consume these tables (PathEnumerator seeding, sensitization
// candidate selection) with end states bit-identical to full recompute,
// at any --jobs. TimingChecker (src/timing/checker.hpp) audits the
// contract against compute_timing/compute_suffix on demand.
#pragma once

#include <cstdint>
#include <vector>

#include "src/base/ids.hpp"
#include "src/netlist/network.hpp"
#include "src/netlist/transform.hpp"

namespace kms {

class IncrementalSta {
 public:
  /// Repair-cost observability, aggregated over the engine's lifetime.
  struct Stats {
    std::uint64_t applies = 0;   ///< apply() calls (one per loop edit)
    std::uint64_t rebuilds = 0;  ///< full rebuild() calls (ctor included)
    /// Gate visits by repairs: arrival re-evaluations plus suffix ones.
    std::uint64_t repaired = 0;
  };

  /// Builds the tables with one full pass over `net`. The network must
  /// outlive the engine; between apply() calls it must only be edited
  /// through traced transformations (see apply()).
  explicit IncrementalSta(const Network& net);

  /// Repair the tables after a traced edit. `trace` must cover every
  /// gate whose kind/delay/fanin-sources changed and every severed edge,
  /// exactly as the TransformTrace contract specifies; edits the trace
  /// cannot see (new gates, new connections, deaths by sweep) are
  /// discovered from capacity watermarks and liveness diffs, since ids
  /// grow monotonically and tombstones never revive.
  void apply(const TransformTrace& trace);

  /// Recompute everything from scratch (used after untraced bulk edits,
  /// e.g. the final removal phase). Keeps the bit-identity contract
  /// trivially.
  void rebuild();

  const std::vector<double>& arrival() const { return arrival_; }
  const std::vector<double>& suffix() const { return suffix_; }
  double delay() const { return delay_; }
  const Stats& stats() const { return stats_; }
  /// Continue from `totals` (a resumed run's restored counters) instead
  /// of this engine's own count so far.
  void restore_stats(const Stats& totals) { stats_ = totals; }
  /// The repair heaps' topological key (see key_); audited by NL028.
  const std::vector<std::uint32_t>& topo_key() const { return key_; }

 private:
  void reset_dead(std::uint32_t g);
  void grow();
  /// Restore key_[u] < key_[v] across the live connection u -> v by
  /// raising v's key and, transitively, its fanouts' keys.
  void order_edge(GateId u, GateId v);

  const Network& net_;
  std::vector<double> arrival_;
  std::vector<double> suffix_;
  double delay_ = 0.0;

  // Liveness snapshot as of the last apply()/rebuild(), used to diff
  // deaths (and births past the watermark) the trace cannot report.
  std::vector<char> gate_live_;
  std::vector<char> conn_live_;

  // Scratch (kept across calls to avoid reallocation).
  std::vector<char> fwd_dirty_;
  std::vector<char> bwd_dirty_;
  /// Topological key of every live gate: strictly increasing along every
  /// live connection, so the repair heaps pop in topological order. Set
  /// to levels by rebuild() and repaired by apply() (born gates and new
  /// or rerouted connections raise keys downstream), never re-sorted.
  std::vector<std::uint32_t> key_;
  std::vector<GateId> raise_stack_;  ///< order_edge scratch

  Stats stats_;
};

}  // namespace kms

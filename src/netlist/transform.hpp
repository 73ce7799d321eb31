// Structural network transformations.
//
// These are the supporting transformations the KMS algorithm relies on:
//  * decompose_to_simple — Section VI: "The circuit on which the algorithm
//    is performed must be composed of only simple gates. ... In converting
//    a complex gate to an equivalent connection of simple gates, the last
//    gate is assigned a delay equal to the delay of the complex gate. The
//    other gates are assigned delays of zero."
//  * propagate_constants — Fig. 3: "Propagate constant as far as possible,
//    removing useless gates." Follows the paper's wire convention: a
//    multi-input gate reduced to a single input becomes a zero-delay
//    buffer (Section VII proof convention) rather than disappearing.
//  * collapse_buffers / simplify — housekeeping used by generators, the
//    optimizer, and reporting.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/netlist/network.hpp"

namespace kms {

/// Record of which gates a transformation pass modified, used by the
/// incremental ATPG engine to invalidate only the fault verdicts whose
/// cones intersect the changed region. `touched` lists every gate whose
/// kind, fanin list or fanin sources changed (conservatively — listing
/// an unchanged gate is harmless, omitting a changed one is not).
/// `severed` lists edges (from, to) that existed before the pass but may
/// not exist afterwards; the invalidation traversal walks the union of
/// the current connectivity and these edges, so a verdict computed over
/// the old structure is re-checked even where the path to it was cut.
struct TransformTrace {
  std::vector<GateId> touched;
  std::vector<std::pair<GateId, GateId>> severed;

  void note_touch(GateId g) { touched.push_back(g); }
  void note_severed(GateId from, GateId to) { severed.emplace_back(from, to); }
  bool empty() const { return touched.empty() && severed.empty(); }
};

/// Expand every XOR/XNOR/MUX into AND/OR/NOT/NOR gates. Path lengths are
/// preserved exactly: the final gate of each expansion keeps the complex
/// gate's delay, internal gates get delay 0, and each use of an original
/// fanin keeps that fanin connection's delay. Returns the number of
/// complex gates expanded.
std::size_t decompose_to_simple(Network& net);

/// Simplify gates fed by constants until no constant can move any
/// further, visiting only the gates constants reach (a worklist seeded
/// at the fanouts of the constant gates). AND/OR gates left with a
/// single fanin become zero-delay buffers (the wire convention);
/// NAND/NOR become inverters that keep their gate delay. The result is
/// the network a topological sweep repeated to a fixpoint produces, ids
/// and list orders included. Returns the number of simplification
/// steps (nonzero iff anything changed). Does not sweep — call
/// Network::sweep() afterwards. `trace`, if non-null, records every
/// modified gate and severed edge.
std::size_t propagate_constants(Network& net, TransformTrace* trace = nullptr);

/// One step of propagate_constants: simplify gate `g` against the
/// constants among its current fanins. Returns true if it changed.
bool simplify_gate(Network& net, GateId g);

/// Splice out every kBuf gate, folding its gate delay and input-connection
/// delay into each outgoing connection so that all path lengths are
/// unchanged. Buffers are found by a scan; only buffers that feed one
/// another or share a source need (and get) a topological order.
/// Returns the number of buffers removed.
/// `trace`, if non-null, records every modified gate and severed edge.
std::size_t collapse_buffers(Network& net, TransformTrace* trace = nullptr);

/// propagate_constants + collapse_buffers + sweep to a fixpoint.
/// `trace`, if non-null, records every modified gate and severed edge
/// (sweep removals are not traced: a swept gate reaches no primary
/// output, so no testability verdict ever depended on it).
void simplify(Network& net, TransformTrace* trace = nullptr);

/// Copy of `net` keeping only the primary output at `index` (all other
/// output cones swept away, primary inputs kept). Used to carve out the
/// paper's Fig. 4 single-output carry subcircuit.
Network extract_output(const Network& net, std::size_t index);

}  // namespace kms

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
//  * collapse_buffers / simplify — the cleanup after each loop transform
//    and removal commit, also used by generators and the optimizer.
#pragma once

#include <cstddef>
#include <initializer_list>

#include "src/netlist/network.hpp"

namespace kms {

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
/// and list orders included. Simple gates only: a constant reaching a
/// MUX throws std::invalid_argument (decompose_to_simple first).
/// Returns the number of simplification steps (nonzero iff anything
/// changed). Does not sweep — call Network::sweep() afterwards.
std::size_t propagate_constants(Network& net);

/// One step of propagate_constants: simplify gate `g` against the
/// constants among its current fanins (a MUX is left as it is). Returns
/// true if it changed, and then records `g` as touched in the network's
/// attached trace.
bool simplify_gate(Network& net, GateId g);

/// Splice out every kBuf gate, folding its gate delay and input-connection
/// delay into each outgoing connection so that all path lengths are
/// unchanged. Buffers are found by a scan; only buffers that feed one
/// another or share a source need (and get) a topological order.
/// Returns the number of buffers removed.
std::size_t collapse_buffers(Network& net);

/// propagate_constants, then collapse_buffers, then sweep: the cleanup
/// after every loop transform and removal commit. One round reaches the
/// fixpoint: propagation leaves no logic gate with a constant fanin,
/// splicing buffers adds none (a buffer of a constant was folded), and
/// sweeping only removes gates.
void simplify(Network& net);

/// Throw std::invalid_argument naming the first live gate of `net` whose
/// kind is among `kinds`: "<who>: complex gate <name> (<kind>);
/// decompose_to_simple first".
void require_simple_gates(const Network& net,
                          std::initializer_list<GateKind> kinds,
                          const char* who);

/// Copy of `net` keeping only the primary output at `index` (all other
/// output cones swept away, primary inputs kept). Used to carve out the
/// paper's Fig. 4 single-output carry subcircuit.
Network extract_output(const Network& net, std::size_t index);

}  // namespace kms

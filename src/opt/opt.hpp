// Logic optimization passes standing in for the MIS-II scripts of the
// paper's Section VIII ("circuits ... optimized for delay using the
// timing optimization commands in MIS-II on circuits that had been
// initially optimized for area").
//
//  * strash            — structural hashing: merge identical gates,
//                        cancel double inverters (area cleanup).
//  * balance           — arrival-time-driven tree balancing of AND/OR
//                        trees (depth/delay reduction, testability
//                        preserving — the [23]/[12] class of algebraic
//                        restructuring).
//  * shannon_speedup   — Shannon cofactoring of an output cone against a
//                        late-arriving input: f = x f_x + x' f_x'.
//                        Classic redundancy-*introducing* performance
//                        optimization; this is how the benchmark suite
//                        acquires the stuck-at redundancies the paper
//                        observes after MIS-II timing optimization.
#pragma once

#include <cstddef>

#include "src/base/ids.hpp"
#include "src/netlist/network.hpp"

namespace kms {

/// Merge structurally identical gates (same kind, same fanin multiset
/// for commutative kinds) and cancel NOT(NOT(x)). Returns gates removed.
std::size_t strash(Network& net);

/// Collapse single-fanout same-kind AND/OR trees and rebuild them as
/// balanced binary trees, merging earliest-arriving operands first
/// (Huffman order). Each new node inherits the root gate's delay.
/// Returns the number of trees rebuilt.
std::size_t balance(Network& net);

/// Shannon-cofactor the cone of output index `output` against primary
/// input `pivot`: out = (pivot & cone[pivot=1]) | (!pivot & cone[pivot=0]).
/// The select MUX is built from unit-delay gates. The two cofactor
/// copies are constant-propagated. Returns true if the rewrite was
/// applied; a cone of more than 2000 gates is not duplicated (area
/// guard).
bool shannon_speedup(Network& net, std::size_t output, GateId pivot);

/// Apply shannon_speedup to every output whose critical path starts at
/// the latest-arriving reachable input. Returns rewrites applied.
std::size_t shannon_speedup_critical(Network& net);

}  // namespace kms

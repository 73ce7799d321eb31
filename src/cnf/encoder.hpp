// Tseitin encoding of logic networks into CNF.
//
// Every live gate gets a SAT variable constrained to equal the gate's
// function of its fanin variables. encode_gate is the one per-gate
// clause kernel every encoding shares, the ATPG layer's good/faulty
// dual encoding (src/atpg/atpg.hpp) included. On top of the plain
// encoding this module provides the equivalence miter (Section VI
// safety net): SAT iff some input distinguishes the two networks.
#pragma once

#include <optional>
#include <vector>

#include "src/base/governor.hpp"
#include "src/base/ids.hpp"
#include "src/netlist/network.hpp"
#include "src/sat/solver.hpp"

namespace kms {

/// CNF encoding of one network inside a Solver.
class CircuitEncoding {
 public:
  /// Encode every live gate of `net` into `solver`.
  CircuitEncoding(const Network& net, sat::Solver& solver);

  /// Encode exactly the gates of `order`, allocating variables and
  /// emitting clauses in that sequence. The list must be fanin-closed
  /// and topologically ordered (every fanin source of a listed non-input
  /// gate listed earlier; asserted). ATPG passes its cone-of-influence
  /// support in topo_order(); the path-scoped sensitizer passes the DFS
  /// post-order of a fanin closure.
  CircuitEncoding(const Network& net, sat::Solver& solver,
                  const std::vector<GateId>& order);

  /// Forget every variable and encode `order` as the list constructor
  /// would, into the solver (which the caller has reset). The var table
  /// keeps its storage.
  void reencode(const std::vector<GateId>& order);

  sat::Var var_of(GateId g) const { return vars_[g.value()]; }
  sat::Lit lit_of(GateId g, bool negated = false) const {
    return sat::Lit(var_of(g), negated);
  }

  /// True if `g` was part of the encoded list (always true for the
  /// whole-network constructor).
  bool encoded(GateId g) const { return vars_[g.value()] >= 0; }

  /// Number of gates actually encoded (= list size, or every live gate
  /// for the whole-network constructor).
  std::size_t encoded_gates() const { return encoded_gates_; }

  const Network& network() const { return net_; }
  sat::Solver& solver() const { return solver_; }

  /// Extract the primary-input assignment from the solver's model
  /// (after a kSat solve), in net.inputs() order. Inputs outside the
  /// encoded list have no solver variable and read as false — any
  /// value is valid there, since they cannot influence the encoded cone.
  std::vector<bool> model_inputs() const;

 private:
  void encode(const std::vector<GateId>& order);

  const Network& net_;
  sat::Solver& solver_;
  std::vector<sat::Var> vars_;
  std::size_t encoded_gates_ = 0;
  std::vector<sat::Lit> in_;      ///< encode scratch: one gate's fanins
  std::vector<sat::Lit> clause_;  ///< encode_gate scratch
};

/// Add clauses constraining `out_var` to equal gate function `kind` over
/// `fanin_lits`. Shared by all encodings. `scratch` holds the one wide
/// clause of an AND/OR-family gate; its owner keeps it across calls so
/// encoding allocates nothing once it is warm.
void encode_gate(sat::Solver& solver, GateKind kind, sat::Var out_var,
                 const std::vector<sat::Lit>& fanin_lits,
                 std::vector<sat::Lit>& scratch);

/// Governed equivalence miter (three-valued). kUnsat = equivalent,
/// kSat = inequivalent (*counterexample, if non-null, receives a
/// distinguishing input assignment), kUnknown = the governor's resources
/// ran out before a verdict — the networks must be treated as possibly
/// inequivalent. Interfaces are matched positionally and must agree in
/// size. `governor` may be null (then kUnknown cannot occur).
sat::Result check_equivalence(const Network& a, const Network& b,
                              std::vector<bool>* counterexample = nullptr,
                              ResourceGovernor* governor = nullptr);

/// Equivalence miter: returns a counterexample input assignment if the
/// networks differ (matched positionally by PI/PO), or std::nullopt if
/// they are equivalent. Interfaces must match in size. Exact: runs
/// ungoverned to completion.
std::optional<std::vector<bool>> sat_inequivalence(const Network& a,
                                                   const Network& b);

/// Convenience wrapper with a boolean answer.
bool sat_equivalent(const Network& a, const Network& b);

}  // namespace kms

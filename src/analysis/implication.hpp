// Static implication learning over the three-valued domain {0, 1, X}.
//
// propagate() seeds one or more gates with values and closes the
// assignment under sound local rules, forward and backward:
//   * forward: a controlling input fixes the output; all-known inputs
//     evaluate the gate (any kind); XOR/XNOR close over parity.
//   * backward: a noncontrolled output fixes every input (AND out=1,
//     NOR out=0, ...); the unit rule fires when exactly one input is
//     unknown and the output is known; BUF/NOT/OUTPUT are bidirectional.
// A gate implied to both values is a conflict: the seed assignment is
// unsatisfiable in the good circuit. The rules are sound but incomplete
// — a conflict is always real, the absence of one proves nothing —
// which is exactly the polarity static untestability analysis needs.
//
// One level of recursive (indirect) learning is obtained by seeding two
// literals at once: propagate({a=v, b=w}).conflict establishes the
// learned implication (a=v) => (b=!w).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/netlist/network.hpp"

namespace kms::analysis {

/// Closure of one seed set. `assigned` lists (gate, value) in
/// derivation order, seeds first — deterministic for a fixed network.
struct Implications {
  bool conflict = false;
  std::vector<std::pair<GateId, bool>> assigned;

  /// Value lookup against the closure (linear; use the engine's
  /// propagate-into-buffer form for bulk queries).
  bool implies(GateId g, bool v) const {
    for (const auto& [gate, val] : assigned)
      if (gate == g) return val == v;
    return false;
  }
};

class ImplicationEngine {
 public:
  /// The network must stay structurally unchanged while the engine is
  /// in use. The engine is stateless across calls and safe to share
  /// between threads (propagate() uses only local scratch).
  explicit ImplicationEngine(const Network& net) : net_(net) {}

  Implications propagate(
      const std::vector<std::pair<GateId, bool>>& seeds) const;

 private:
  const Network& net_;
};

}  // namespace kms::analysis

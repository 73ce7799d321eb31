// Static timing analysis over the paper's delay model (Section IV/V).
//
// Arrival time of a gate = latest time its output settles, assuming every
// path propagates: arrival(pi) = input arrival; arrival(g) = max over
// fanin connections c of (arrival(source(c)) + d(c)) + d(g). The network
// delay bound is the max arrival over primary outputs — the "longest
// path" the paper contrasts with the critical (sensitizable) path.
//
// The per-gate relaxation kernels below (local_arrival / local_suffix)
// are the single definition of each maintained timing quantity. Both
// the full passes in this file and the dirty-cone repair in
// src/timing/incremental.hpp evaluate exactly these expressions, in the
// same association order, so a repaired table is bit-identical to a
// from-scratch one: IEEE max is exact, and + over identical operands in
// identical order is deterministic. Required times and slack are only
// ever computed from scratch (compute_timing).
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "src/base/ids.hpp"
#include "src/netlist/network.hpp"

namespace kms {

/// Arrival/required/slack tables indexed by GateId::value().
struct TimingTables {
  std::vector<double> arrival;
  std::vector<double> required;
  std::vector<double> slack;
  double delay = 0.0;  ///< max arrival over primary outputs
};

/// The constant used for "effectively minus infinity" arrival times.
double minus_infinity();

/// One gate's arrival from its fanins' table entries. Constants carry
/// -infinity (they never constrain a path); a gate fed only by constants
/// settles "immediately": -inf + delay is still -inf with IEEE
/// arithmetic, so no special case is needed.
inline double local_arrival(const Network& net, GateId g,
                            const std::vector<double>& arrival) {
  const Gate& gt = net.gate(g);
  switch (gt.kind) {
    case GateKind::kInput:
      return gt.arrival;
    case GateKind::kConst0:
    case GateKind::kConst1:
      return minus_infinity();
    default: {
      double in = minus_infinity();
      for (ConnId c : gt.fanins) {
        const Conn& cn = net.conn(c);
        in = std::max(in, arrival[cn.from.value()] + cn.delay);
      }
      return in + gt.delay;
    }
  }
}

/// One gate's longest completion (conn delay + gate delay sums) from its
/// output to any primary output; -infinity where no output is reachable.
/// This is the compact boundary timing model of a gate's untouched
/// fanout region (the pin-to-pin worst delay of Li et al.): it is what
/// PathEnumerator and the branch-and-bound delay search use as their
/// exact completion bound.
inline double local_suffix(const Network& net, GateId g,
                           const std::vector<double>& suffix) {
  const Gate& gt = net.gate(g);
  if (gt.kind == GateKind::kOutput) return 0.0;
  double best = minus_infinity();
  for (ConnId c : gt.fanouts) {
    const Conn& cn = net.conn(c);
    best = std::max(best,
                    cn.delay + net.gate(cn.to).delay + suffix[cn.to.value()]);
  }
  return best;
}

/// Arrival time at every gate output (one forward topological pass).
std::vector<double> compute_arrival(const Network& net);

/// Longest suffix from every gate's output to any primary output (one
/// backward topological pass). Shared by PathEnumerator, the computed-
/// delay search, and the incremental engine's audit.
std::vector<double> compute_suffix(const Network& net);

/// Network delay bound from an already-computed arrival table: max
/// arrival over primary outputs, 0.0 when no output has a finite
/// arrival. Lets callers that need both the table and the bound pay for
/// one traversal instead of two.
double delay_from_arrival(const Network& net,
                          const std::vector<double>& arrival);

/// Full arrival/required/slack computation against the network's own
/// delay (required(po) = delay for every output).
TimingTables compute_timing(const Network& net);

/// Topological ("longest path") delay bound of the network.
double topological_delay(const Network& net);

}  // namespace kms

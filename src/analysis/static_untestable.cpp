#include "src/analysis/static_untestable.hpp"

#include <utility>
#include <vector>

namespace kms::analysis {

std::vector<char> mark_cone(const Network& net, GateId entry) {
  std::vector<char> cone(net.gate_capacity(), 0);
  std::vector<GateId> stack{entry};
  cone[entry.value()] = 1;
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (ConnId c : net.gate(g).fanouts) {
      const GateId to = net.conn(c).to;
      if (cone[to.value()]) continue;
      cone[to.value()] = 1;
      stack.push_back(to);
    }
  }
  return cone;
}

namespace {

/// One side input of a dominator: the dominator and its source gate.
struct Side {
  GateId dom;
  GateId source;
};

/// All side inputs of the dominators of a fault whose sources lie
/// outside the fault cone (so their values are fault-independent).
/// Restricted to dominators with a controlling value — only those can
/// block propagation through a forced side input.
std::vector<Side> outside_sides(const Network& net,
                                const std::vector<GateId>& doms,
                                const std::vector<char>& cone,
                                ConnId fault_conn) {
  std::vector<Side> sides;
  for (GateId d : doms) {
    if (!has_controlling_value(net.gate(d).kind)) continue;
    for (ConnId c : net.gate(d).fanins) {
      if (c == fault_conn) continue;
      const GateId s = net.conn(c).from;
      if (cone[s.value()]) continue;
      sides.push_back(Side{d, s});
    }
  }
  return sides;
}

}  // namespace

std::string_view static_verdict_name(StaticVerdict v) {
  switch (v) {
    case StaticVerdict::kUnknown:      return "unknown";
    case StaticVerdict::kUnobservable: return "unobservable";
    case StaticVerdict::kUnexcitable:  return "unexcitable";
    case StaticVerdict::kBlocked:      return "blocked";
  }
  return "unknown";
}

StaticUntestable::StaticUntestable(const Network& net)
    : net_(net), dom_(net), imp_(net) {}

StaticVerdict StaticUntestable::analyze(const Fault& f) const {
  // The fault enters the circuit at the stem's gate or at the branch's
  // sink; a branch fault is a fault on that one connection.
  const bool branch = f.site == Fault::Site::kBranch;
  const GateId source = fault_source(net_, f);
  const GateId entry = branch ? net_.conn(f.conn).to : f.gate;
  const ConnId fault_conn = branch ? f.conn : ConnId::invalid();

  // Rule 1: no live path from the fault site to any primary output.
  if (!dom_.reaches_output(entry)) return StaticVerdict::kUnobservable;

  // Rule 2: the excitation value conflicts — the site is structurally
  // stuck at the fault value already.
  const bool act = !f.stuck;
  const Implications exc = imp_.propagate({{source, act}});
  if (exc.conflict) return StaticVerdict::kUnexcitable;

  // Rule 3: a dominator side input outside the fault cone is forced to
  // the dominator's controlling value under excitation.
  std::vector<GateId> doms;
  if (fault_conn.is_valid()) doms.push_back(entry);
  for (GateId d : dom_.chain(entry)) doms.push_back(d);
  if (doms.empty()) return StaticVerdict::kUnknown;

  const std::vector<char> cone = mark_cone(net_, entry);
  const std::vector<Side> sides = outside_sides(net_, doms, cone, fault_conn);
  for (const Side& s : sides)
    if (exc.implies(s.source, controlling_value(net_.gate(s.dom).kind)))
      return StaticVerdict::kBlocked;

  // Indirect (one level of recursive learning): every outside side
  // input must individually sit at its noncontrolling value in any
  // test, so seeding them all jointly with the excitation is a
  // necessary condition — a conflict proves untestability.
  if (!sides.empty()) {
    std::vector<std::pair<GateId, bool>> seeds{{source, act}};
    for (const Side& s : sides)
      seeds.emplace_back(s.source,
                         noncontrolling_value(net_.gate(s.dom).kind));
    if (imp_.propagate(seeds).conflict) return StaticVerdict::kBlocked;
  }
  return StaticVerdict::kUnknown;
}

}  // namespace kms::analysis

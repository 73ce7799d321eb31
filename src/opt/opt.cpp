#include "src/opt/opt.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <unordered_map>

#include "src/netlist/transform.hpp"
#include "src/timing/sta.hpp"

namespace kms {
namespace {

/// Replace every use of `from` with `to` (rerouting fanout connections).
void replace_uses(Network& net, GateId from, GateId to) {
  auto fanouts = net.gate(from).fanouts;  // copy
  for (ConnId c : fanouts) net.reroute_source(c, to);
}

bool commutative(GateKind k) {
  switch (k) {
    case GateKind::kAnd:
    case GateKind::kOr:
    case GateKind::kNand:
    case GateKind::kNor:
    case GateKind::kXor:
    case GateKind::kXnor:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::size_t strash(Network& net) {
  std::size_t merged = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    std::map<std::tuple<GateKind, std::vector<std::uint32_t>>, GateId> seen;
    for (GateId g : net.topo_order()) {
      const Gate& gt = net.gate(g);
      if (!is_logic(gt.kind) || is_constant(gt.kind) || gt.dead) continue;
      // Cancel double inverters: NOT(NOT(x)) -> x.
      if (gt.kind == GateKind::kNot) {
        const GateId src = net.conn(gt.fanins[0]).from;
        const Gate& sg = net.gate(src);
        if (sg.kind == GateKind::kNot) {
          const GateId base = net.conn(sg.fanins[0]).from;
          replace_uses(net, g, base);
          ++merged;
          changed = true;
          continue;
        }
      }
      std::vector<std::uint32_t> key;
      for (ConnId c : gt.fanins) key.push_back(net.conn(c).from.value());
      if (commutative(gt.kind)) std::sort(key.begin(), key.end());
      auto [it, inserted] =
          seen.emplace(std::make_tuple(gt.kind, std::move(key)), g);
      if (!inserted) {
        replace_uses(net, g, it->second);
        ++merged;
        changed = true;
      }
    }
    net.sweep();
  }
  return merged;
}

std::size_t balance(Network& net) {
  std::size_t rebuilt = 0;
  const auto order = net.topo_order();
  for (GateId g : order) {
    Gate& gt = net.gate(g);
    if (gt.dead) continue;
    if (gt.kind != GateKind::kAnd && gt.kind != GateKind::kOr) continue;
    // Collapse a maximal same-kind tree hanging off g through
    // single-fanout, equal-delay children.
    std::vector<GateId> leaves;
    std::vector<GateId> internal;
    std::vector<GateId> stack{g};
    while (!stack.empty()) {
      const GateId n = stack.back();
      stack.pop_back();
      for (ConnId c : net.gate(n).fanins) {
        const GateId src = net.conn(c).from;
        const Gate& sg = net.gate(src);
        if (sg.kind == net.gate(g).kind && sg.fanouts.size() == 1 &&
            sg.delay == net.gate(g).delay) {
          internal.push_back(src);
          stack.push_back(src);
        } else {
          leaves.push_back(src);
        }
      }
    }
    if (leaves.size() < 3 || internal.empty()) continue;
    // Rebuild: merge the two earliest-arriving operands repeatedly.
    const auto arrival = compute_arrival(net);
    using Item = std::pair<double, GateId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    for (GateId l : leaves) pq.emplace(arrival[l.value()], l);
    const GateKind kind = net.gate(g).kind;
    const double d = net.gate(g).delay;
    while (pq.size() > 2) {
      const auto [ta, a] = pq.top();
      pq.pop();
      const auto [tb, b] = pq.top();
      pq.pop();
      const GateId n = net.add_gate(kind, {a, b}, d);
      pq.emplace(std::max(ta, tb) + d, n);
    }
    // Point g itself at the final two operands.
    while (!net.gate(g).fanins.empty())
      net.remove_conn(net.gate(g).fanins.back());
    const GateId a = pq.top().second;
    pq.pop();
    net.connect(a, g);
    if (!pq.empty()) {
      const GateId b = pq.top().second;
      net.connect(b, g);
    }
    ++rebuilt;
  }
  net.sweep();
  return rebuilt;
}

namespace {

/// Delay of the three gates (two ANDs + OR) and the inverter realizing
/// shannon_speedup's select MUX.
constexpr double kMuxGateDelay = 1.0;
/// Cones larger than this are not duplicated (area guard).
constexpr std::size_t kMaxShannonCone = 2000;

/// Copy the transitive-fanin cone of `root` with primary input `pivot`
/// replaced by the constant `value`. Returns the copy of `root`.
GateId copy_cone_with_pivot(Network& net, GateId root, GateId pivot,
                            bool value,
                            std::unordered_map<std::uint32_t, GateId>* memo) {
  if (root == pivot) return net.const_gate(value);
  const Gate& gt = net.gate(root);
  if (gt.kind == GateKind::kInput || is_constant(gt.kind)) return root;
  auto it = memo->find(root.value());
  if (it != memo->end()) return it->second;
  std::vector<GateId> srcs;
  const std::size_t nf = gt.fanins.size();
  for (std::size_t i = 0; i < nf; ++i) {
    // Re-fetch each round: copying children can reallocate the gate table.
    const ConnId c = net.gate(root).fanins[i];
    srcs.push_back(
        copy_cone_with_pivot(net, net.conn(c).from, pivot, value, memo));
  }
  const GateId dup =
      net.add_gate(net.gate(root).kind, srcs, net.gate(root).delay);
  memo->emplace(root.value(), dup);
  return dup;
}

std::size_t cone_size(const Network& net, GateId root) {
  std::vector<bool> seen(net.gate_capacity(), false);
  std::vector<GateId> stack{root};
  std::size_t n = 0;
  seen[root.value()] = true;
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    ++n;
    for (ConnId c : net.gate(g).fanins) {
      const GateId src = net.conn(c).from;
      if (!seen[src.value()]) {
        seen[src.value()] = true;
        stack.push_back(src);
      }
    }
  }
  return n;
}

}  // namespace

bool shannon_speedup(Network& net, std::size_t output, GateId pivot) {
  const GateId po = net.outputs().at(output);
  const ConnId out_conn = net.gate(po).fanins[0];
  const GateId root = net.conn(out_conn).from;
  if (root == pivot) return false;  // output is the pivot itself
  if (cone_size(net, root) > kMaxShannonCone) return false;

  std::unordered_map<std::uint32_t, GateId> memo1, memo0;
  const GateId f1 = copy_cone_with_pivot(net, root, pivot, true, &memo1);
  const GateId f0 = copy_cone_with_pivot(net, root, pivot, false, &memo0);
  const GateId np = net.add_gate(GateKind::kNot, {pivot}, kMuxGateDelay);
  const GateId t1 = net.add_gate(GateKind::kAnd, {pivot, f1}, kMuxGateDelay);
  const GateId t0 = net.add_gate(GateKind::kAnd, {np, f0}, kMuxGateDelay);
  const GateId mux = net.add_gate(GateKind::kOr, {t1, t0}, kMuxGateDelay);
  net.reroute_source(out_conn, mux);
  propagate_constants(net);
  collapse_buffers(net);
  net.sweep();
  return true;
}

std::size_t shannon_speedup_critical(Network& net) {
  std::size_t applied = 0;
  const auto arrival = compute_arrival(net);
  // Latest-arriving primary input overall (ties: first).
  GateId pivot = GateId::invalid();
  for (GateId i : net.inputs())
    if (!pivot.is_valid() ||
        net.gate(i).arrival > net.gate(pivot).arrival)
      pivot = i;
  if (!pivot.is_valid()) return 0;
  // Decide which outputs to rewrite before touching the network (the
  // arrival table is indexed by the pre-rewrite gate ids).
  std::vector<std::size_t> todo;
  for (std::size_t o = 0; o < net.outputs().size(); ++o) {
    const GateId po = net.outputs()[o];
    const GateId root = net.conn(net.gate(po).fanins[0]).from;
    // Only rewrite outputs that are actually late.
    if (arrival[root.value()] <= net.gate(pivot).arrival) continue;
    todo.push_back(o);
  }
  for (std::size_t o : todo)
    if (shannon_speedup(net, o, pivot)) ++applied;
  return applied;
}

}  // namespace kms

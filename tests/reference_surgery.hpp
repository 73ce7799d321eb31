// Whole-network reference implementations of the KMS loop's surgery and
// delay search, kept as oracles for the production versions that visit
// only what an edit touches:
//
//  * reference_propagate_constants — a topological sweep over every gate,
//    repeated until a sweep changes nothing;
//  * reference_collapse_buffers — splices buffers in topological order;
//  * reference_sweep — removes unreachable gates in reverse topological
//    order;
//  * reference_loop_transform — one loop iteration's surgery (duplicate
//    the chosen path up to its last multi-fanout gate, assert the first
//    edge constant) built on the three above;
//  * reference_computed_delay — the branch-and-bound longest-sensitizable-
//    path search with a SAT search for every query.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "src/cnf/encoder.hpp"
#include "src/netlist/network.hpp"
#include "src/netlist/transform.hpp"
#include "src/sat/solver.hpp"
#include "src/timing/path.hpp"
#include "src/timing/sensitize.hpp"
#include "src/timing/sta.hpp"

namespace kms {

inline std::size_t reference_propagate_constants(Network& net,
                                                 TransformTrace* trace) {
  std::size_t changed_total = 0;
  std::vector<GateId> old_srcs;
  bool changed = true;
  while (changed) {
    changed = false;
    for (GateId g : net.topo_order()) {
      const Gate& gt = net.gate(g);
      if (gt.dead || !is_logic(gt.kind) || is_constant(gt.kind)) continue;
      if (trace) {
        old_srcs.clear();
        for (ConnId c : gt.fanins) old_srcs.push_back(net.conn(c).from);
      }
      if (simplify_gate(net, g)) {
        if (trace) {
          trace->note_touch(g);
          for (GateId s : old_srcs) trace->note_severed(s, g);
        }
        ++changed_total;
        changed = true;
      }
    }
  }
  return changed_total;
}

inline std::size_t reference_collapse_buffers(Network& net,
                                              TransformTrace* trace) {
  std::size_t removed = 0;
  for (GateId g : net.topo_order()) {
    Gate& gt = net.gate(g);
    if (gt.dead || gt.kind != GateKind::kBuf) continue;
    const ConnId in = gt.fanins[0];
    const GateId src = net.conn(in).from;
    const double through = net.conn(in).delay + gt.delay;
    auto fanouts = gt.fanouts;
    for (ConnId c : fanouts) {
      if (trace) trace->note_severed(g, net.conn(c).to);
      net.conn(c).delay += through;
      net.reroute_source(c, src);
    }
    if (trace) {
      trace->note_touch(g);
      trace->note_severed(src, g);
    }
    net.remove_gate(g);
    ++removed;
  }
  return removed;
}

inline std::size_t reference_sweep(Network& net) {
  std::vector<bool> keep(net.gate_capacity(), false);
  std::vector<GateId> stack;
  for (GateId o : net.outputs()) {
    if (!net.gate(o).dead) {
      keep[o.value()] = true;
      stack.push_back(o);
    }
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (ConnId c : net.gate(g).fanins) {
      const GateId f = net.conn(c).from;
      if (!keep[f.value()]) {
        keep[f.value()] = true;
        stack.push_back(f);
      }
    }
  }
  for (GateId i : net.inputs()) keep[i.value()] = true;
  std::size_t removed = 0;
  const std::vector<GateId> order = net.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const GateId g = *it;
    if (keep[g.value()] || net.gate(g).dead) continue;
    if (!is_logic(net.gate(g).kind)) continue;
    while (!net.gate(g).fanouts.empty())
      net.remove_conn(net.gate(g).fanouts.back());
    net.remove_gate(g);
    ++removed;
  }
  return removed;
}

/// One loop iteration on the longest path PathEnumerator picks; returns
/// false when no IO-path is left.
inline bool reference_loop_transform(Network& net) {
  PathEnumerator en(net);
  const std::optional<Path> chosen = en.next();
  if (!chosen) return false;
  const Path& p = *chosen;
  std::ptrdiff_t n_index = -1;
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(p.gates.size()) - 1;
       i >= 0; --i) {
    const GateId g = p.gates[static_cast<std::size_t>(i)];
    if (net.gate(g).kind == GateKind::kOutput) continue;
    std::size_t fanout = 0;
    for (ConnId c : net.gate(g).fanouts)
      if (!net.conn(c).dead) ++fanout;
    if (fanout > 1) {
      n_index = i;
      break;
    }
  }
  ConnId first = p.conns[0];
  GateId first_gate = p.gates[0];
  if (n_index >= 0) {
    GateId prev_dup = GateId::invalid();
    for (std::size_t j = 0; j <= static_cast<std::size_t>(n_index); ++j) {
      const std::size_t pin = net.pin_of(p.conns[j]);
      const GateId dup = net.duplicate_gate(p.gates[j]);
      if (j > 0) net.reroute_source(net.gate(dup).fanins[pin], prev_dup);
      if (j == 0) {
        first = net.gate(dup).fanins[pin];
        first_gate = dup;
      }
      prev_dup = dup;
    }
    net.reroute_source(p.conns[static_cast<std::size_t>(n_index) + 1],
                       prev_dup);
  }
  const GateKind k0 = net.gate(first_gate).kind;
  net.set_conn_constant(first,
                        has_controlling_value(k0) ? controlling_value(k0)
                                                  : false);
  reference_propagate_constants(net, nullptr);
  reference_collapse_buffers(net, nullptr);
  reference_sweep(net);
  return true;
}

inline DelayReport reference_computed_delay(const Network& net,
                                            SensitizationMode mode) {
  DelayReport report;
  // The sensitizer only states the side constraints. Every query is
  // searched on a plain solver, which never answers from an earlier
  // model, over its own whole-network encoding; that encoding allocates
  // variables in the same topological order, so the literals agree.
  Sensitizer sens(net, mode);
  sat::Solver fresh;
  const CircuitEncoding enc(net, fresh);
  const std::vector<double> suffix = compute_suffix(net);
  constexpr double kEps = 1e-9;
  std::vector<std::vector<ConnId>> sorted_fanouts(net.gate_capacity());
  for (std::uint32_t i = 0; i < net.gate_capacity(); ++i) {
    const Gate& gt = net.gate(GateId{i});
    if (gt.dead) continue;
    auto& outs = sorted_fanouts[i];
    for (ConnId c : gt.fanouts)
      if (!net.conn(c).dead) outs.push_back(c);
    std::sort(outs.begin(), outs.end(), [&](ConnId a, ConnId b) {
      const Conn& ca = net.conn(a);
      const Conn& cb = net.conn(b);
      return ca.delay + net.gate(ca.to).delay + suffix[ca.to.value()] >
             cb.delay + net.gate(cb.to).delay + suffix[cb.to.value()];
    });
  }
  double best = minus_infinity();
  Path best_path;
  struct Frame {
    GateId gate;
    double head;
    std::size_t assume_mark;
    std::size_t next_child;
    ConnId via;
  };
  std::vector<Frame> spine;
  std::vector<sat::Lit> assumptions;
  std::vector<GateId> sources = net.inputs();
  std::sort(sources.begin(), sources.end(), [&](GateId a, GateId b) {
    return net.gate(a).arrival + suffix[a.value()] >
           net.gate(b).arrival + suffix[b.value()];
  });
  for (GateId pi : sources) {
    if (suffix[pi.value()] == minus_infinity()) continue;
    if (net.gate(pi).arrival + suffix[pi.value()] <= best + kEps) break;
    spine.clear();
    assumptions.clear();
    spine.push_back(Frame{pi, net.gate(pi).arrival, 0, 0, ConnId::invalid()});
    while (!spine.empty()) {
      Frame& f = spine.back();
      if (net.gate(f.gate).kind == GateKind::kOutput) {
        if (f.head > best + kEps) {
          best = f.head;
          best_path = Path{};
          best_path.source = spine.front().gate;
          for (std::size_t i = 1; i < spine.size(); ++i) {
            best_path.conns.push_back(spine[i].via);
            best_path.gates.push_back(spine[i].gate);
          }
          best_path.length = best;
        }
        assumptions.resize(f.assume_mark);
        spine.pop_back();
        continue;
      }
      const auto& children = sorted_fanouts[f.gate.value()];
      if (f.next_child >= children.size()) {
        assumptions.resize(f.assume_mark);
        spine.pop_back();
        continue;
      }
      const ConnId c = children[f.next_child++];
      const Conn& cn = net.conn(c);
      const double event_at_input = f.head + cn.delay;
      const double bound =
          event_at_input + net.gate(cn.to).delay + suffix[cn.to.value()];
      if (bound <= best + kEps || bound == minus_infinity()) {
        f.next_child = children.size();
        continue;
      }
      const std::size_t mark = assumptions.size();
      sens.side_constraints(cn.to, c, event_at_input, &assumptions);
      bool ok = true;
      if (assumptions.size() > mark ||
          net.gate(cn.to).kind == GateKind::kOutput) {
        ++report.paths_examined;
        ok = fresh.solve(assumptions) == sat::Result::kSat;
      }
      if (!ok) {
        assumptions.resize(mark);
        continue;
      }
      spine.push_back(Frame{cn.to, event_at_input + net.gate(cn.to).delay,
                            mark, 0, c});
    }
  }
  if (best == minus_infinity()) return report;
  report.delay = best;
  report.witness = std::move(best_path);
  return report;
}

}  // namespace kms

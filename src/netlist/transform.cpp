#include "src/netlist/transform.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace kms {
namespace {

/// Expand a 2-input XOR/XNOR in place. The gate keeps its id (so fanouts
/// remain valid) and becomes the final OR (XOR) or NOR (XNOR) of the
/// two-AND expansion: xor(a,b) = (a & !b) | (!a & b).
void expand_xor2(Network& net, GateId g) {
  Gate& gt = net.gate(g);
  assert(gt.fanins.size() == 2);
  const bool invert = gt.kind == GateKind::kXnor;
  const ConnId ca = gt.fanins[0];
  const ConnId cb = gt.fanins[1];
  const GateId a = net.conn(ca).from;
  const GateId b = net.conn(cb).from;
  const double da = net.conn(ca).delay;
  const double db = net.conn(cb).delay;
  net.remove_conn(ca);
  net.remove_conn(cb);

  const GateId na = net.add_gate(GateKind::kNot, {}, 0.0);
  net.connect(a, na, da);
  const GateId nb = net.add_gate(GateKind::kNot, {}, 0.0);
  net.connect(b, nb, db);
  const GateId t1 = net.add_gate(GateKind::kAnd, {}, 0.0);
  net.connect(a, t1, da);
  net.connect(nb, t1, 0.0);
  const GateId t2 = net.add_gate(GateKind::kAnd, {}, 0.0);
  net.connect(na, t2, 0.0);
  net.connect(b, t2, db);

  net.gate(g).kind = invert ? GateKind::kNor : GateKind::kOr;
  net.connect(t1, g, 0.0);
  net.connect(t2, g, 0.0);
}

/// Expand a MUX(s, a, b) = (s & a) | (!s & b) in place; the gate becomes
/// the final OR.
void expand_mux(Network& net, GateId g) {
  Gate& gt = net.gate(g);
  assert(gt.fanins.size() == 3);
  const ConnId cs = gt.fanins[0];
  const ConnId ca = gt.fanins[1];
  const ConnId cb = gt.fanins[2];
  const GateId s = net.conn(cs).from;
  const GateId a = net.conn(ca).from;
  const GateId b = net.conn(cb).from;
  const double ds = net.conn(cs).delay;
  const double da = net.conn(ca).delay;
  const double db = net.conn(cb).delay;
  net.remove_conn(cs);
  net.remove_conn(ca);
  net.remove_conn(cb);

  const GateId ns = net.add_gate(GateKind::kNot, {}, 0.0);
  net.connect(s, ns, ds);
  const GateId t1 = net.add_gate(GateKind::kAnd, {}, 0.0);
  net.connect(s, t1, ds);
  net.connect(a, t1, da);
  const GateId t2 = net.add_gate(GateKind::kAnd, {}, 0.0);
  net.connect(ns, t2, 0.0);
  net.connect(b, t2, db);

  net.gate(g).kind = GateKind::kOr;
  net.connect(t1, g, 0.0);
  net.connect(t2, g, 0.0);
}

/// Rewrite an n-input (n > 2) XOR/XNOR as a chain of zero-delay 2-input
/// XORs feeding a final 2-input XOR/XNOR that keeps the gate's id, kind
/// and delay.
void chain_wide_parity(Network& net, GateId g) {
  Gate& gt = net.gate(g);
  const std::size_t n = gt.fanins.size();
  assert(n > 2);
  // Detach all but the last fanin; fold them into a zero-delay XOR chain.
  std::vector<GateId> srcs;
  std::vector<double> delays;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const ConnId c = net.gate(g).fanins[0];
    srcs.push_back(net.conn(c).from);
    delays.push_back(net.conn(c).delay);
    net.remove_conn(c);
  }
  GateId acc = srcs[0];
  double acc_delay = delays[0];
  for (std::size_t i = 1; i < srcs.size(); ++i) {
    const GateId x = net.add_gate(GateKind::kXor, {}, 0.0);
    net.connect(acc, x, acc_delay);
    net.connect(srcs[i], x, delays[i]);
    acc = x;
    acc_delay = 0.0;
  }
  // g now has one remaining original fanin; prepend the chain as pin 0.
  const ConnId last = net.gate(g).fanins[0];
  const GateId last_src = net.conn(last).from;
  const double last_delay = net.conn(last).delay;
  net.remove_conn(last);
  net.connect(acc, g, acc_delay);
  net.connect(last_src, g, last_delay);
}

}  // namespace

std::size_t decompose_to_simple(Network& net) {
  std::size_t expanded = 0;
  // New gates are appended, so a simple index loop visits them too.
  for (std::uint32_t i = 0; i < net.gate_capacity(); ++i) {
    const GateId g{i};
    const Gate& gt = net.gate(g);
    if (gt.dead) continue;
    switch (gt.kind) {
      case GateKind::kXor:
      case GateKind::kXnor:
        if (gt.fanins.size() == 1) {
          // Degenerate 1-input parity: buffer or inverter.
          net.gate(g).kind = gt.kind == GateKind::kXor ? GateKind::kBuf
                                                       : GateKind::kNot;
        } else if (gt.fanins.size() == 2) {
          expand_xor2(net, g);
          ++expanded;
        } else {
          // The chain's XORs are appended, so the loop expands them
          // later; g itself is left a 2-input parity gate.
          chain_wide_parity(net, g);
          expand_xor2(net, g);
          ++expanded;
        }
        break;
      case GateKind::kMux:
        expand_mux(net, g);
        ++expanded;
        break;
      default:
        break;
    }
  }
  net.self_check("decompose_to_simple");
  return expanded;
}

namespace {

/// Constant value of a gate, if it is a constant gate.
bool const_value_of(const Network& net, GateId g, bool* value) {
  const GateKind k = net.gate(g).kind;
  if (k == GateKind::kConst0) {
    *value = false;
    return true;
  }
  if (k == GateKind::kConst1) {
    *value = true;
    return true;
  }
  return false;
}

/// Drop every fanin connection of `g` whose source is a constant equal to
/// `drop_value`. Returns how many were dropped.
std::size_t drop_const_fanins(Network& net, GateId g, bool drop_value) {
  std::size_t dropped = 0;
  auto fanins = net.gate(g).fanins;  // copy: we mutate the list
  for (ConnId c : fanins) {
    bool v;
    if (const_value_of(net, net.conn(c).from, &v) && v == drop_value) {
      net.remove_conn(c);
      ++dropped;
    }
  }
  return dropped;
}

/// True if any fanin of `g` is the constant `value`.
bool has_const_fanin(const Network& net, GateId g, bool value) {
  for (ConnId c : net.gate(g).fanins) {
    bool v;
    if (const_value_of(net, net.conn(c).from, &v) && v == value) return true;
  }
  return false;
}

/// Reduce a gate that now has exactly one fanin. AND/OR become wires
/// (zero-delay buffers, zero-delay input connection — the paper's
/// convention); NAND/NOR become inverters that keep the gate delay.
void reduce_single_input(Network& net, GateId g) {
  Gate& gt = net.gate(g);
  assert(gt.fanins.size() == 1);
  switch (gt.kind) {
    case GateKind::kAnd:
    case GateKind::kOr:
    case GateKind::kXor:
      gt.kind = GateKind::kBuf;
      gt.delay = 0.0;
      net.conn(gt.fanins[0]).delay = 0.0;
      break;
    case GateKind::kNand:
    case GateKind::kNor:
    case GateKind::kXnor:
      gt.kind = GateKind::kNot;
      break;
    default:
      break;
  }
}

/// simplify_gate without the trace note.
bool rewrite_gate(Network& net, GateId g) {
  Gate& gt = net.gate(g);
  switch (gt.kind) {
    case GateKind::kBuf:
    case GateKind::kNot: {
      bool v;
      if (const_value_of(net, net.conn(gt.fanins[0]).from, &v)) {
        net.convert_to_constant(g, gt.kind == GateKind::kBuf ? v : !v);
        return true;
      }
      return false;
    }
    case GateKind::kAnd:
    case GateKind::kNand: {
      const bool inv = gt.kind == GateKind::kNand;
      if (has_const_fanin(net, g, false)) {
        net.convert_to_constant(g, inv);
        return true;
      }
      if (drop_const_fanins(net, g, true) == 0) return false;
      if (net.gate(g).fanins.empty())
        net.convert_to_constant(g, !inv);  // empty AND is 1
      else if (net.gate(g).fanins.size() == 1)
        reduce_single_input(net, g);
      return true;
    }
    case GateKind::kOr:
    case GateKind::kNor: {
      const bool inv = gt.kind == GateKind::kNor;
      if (has_const_fanin(net, g, true)) {
        net.convert_to_constant(g, !inv);
        return true;
      }
      if (drop_const_fanins(net, g, false) == 0) return false;
      if (net.gate(g).fanins.empty())
        net.convert_to_constant(g, inv);  // empty OR is 0
      else if (net.gate(g).fanins.size() == 1)
        reduce_single_input(net, g);
      return true;
    }
    case GateKind::kXor:
    case GateKind::kXnor: {
      std::size_t flips = 0;
      auto fanins = gt.fanins;  // copy
      bool changed = false;
      for (ConnId c : fanins) {
        bool v;
        if (const_value_of(net, net.conn(c).from, &v)) {
          net.remove_conn(c);
          changed = true;
          if (v) ++flips;
        }
      }
      if (!changed) return false;
      Gate& gt2 = net.gate(g);
      if (flips % 2 == 1)
        gt2.kind =
            gt2.kind == GateKind::kXor ? GateKind::kXnor : GateKind::kXor;
      if (gt2.fanins.empty())
        net.convert_to_constant(g, gt2.kind == GateKind::kXnor);
      else if (gt2.fanins.size() == 1)
        reduce_single_input(net, g);
      return true;
    }
    case GateKind::kMux: {
      const ConnId cs = gt.fanins[0];
      const ConnId ca = gt.fanins[1];
      const ConnId cb = gt.fanins[2];
      bool vs = false, va = false, vb = false;
      const bool ks = const_value_of(net, net.conn(cs).from, &vs);
      const bool ka = const_value_of(net, net.conn(ca).from, &va);
      const bool kb = const_value_of(net, net.conn(cb).from, &vb);
      if (ks) {
        // Select known: keep the chosen data pin as a buffer.
        const ConnId keep = vs ? ca : cb;
        const GateId src = net.conn(keep).from;
        net.remove_conn(cs);
        net.remove_conn(vs ? cb : ca);
        net.remove_conn(keep);
        Gate& gt2 = net.gate(g);
        gt2.kind = GateKind::kBuf;
        gt2.delay = 0.0;
        net.connect(src, g, 0.0);
        return true;
      }
      if (ka && kb) {
        const GateId s = net.conn(cs).from;
        const double ds = net.conn(cs).delay;
        net.remove_conn(cs);
        net.remove_conn(ca);
        net.remove_conn(cb);
        if (va == vb) {
          net.convert_to_constant(g, va);
        } else {
          Gate& gt2 = net.gate(g);
          gt2.kind = va ? GateKind::kBuf : GateKind::kNot;
          if (va) gt2.delay = 0.0;
          net.connect(s, g, va ? 0.0 : ds);
        }
        return true;
      }
      if (ka || kb) {
        // mux(s,1,b)=s|b; mux(s,0,b)=!s&b; mux(s,a,1)=!s|a; mux(s,a,0)=s&a.
        const GateId s = net.conn(cs).from;
        const double ds = net.conn(cs).delay;
        const ConnId data = ka ? cb : ca;
        const GateId d = net.conn(data).from;
        const double dd = net.conn(data).delay;
        const bool cval = ka ? va : vb;
        net.remove_conn(cs);
        net.remove_conn(ca);
        net.remove_conn(cb);
        const bool need_not = (ka && !va) || (!ka && vb);
        GateId sel = s;
        double dsel = ds;
        if (need_not) {
          // add_gate can reallocate the gate table; take references to
          // net.gate(g) only afterwards.
          sel = net.add_gate(GateKind::kNot, {}, 0.0);
          net.connect(s, sel, ds);
          dsel = 0.0;
        }
        // ka,va=1 -> OR(s,b); ka,va=0 -> AND(!s,b);
        // kb,vb=1 -> OR(!s,a); kb,vb=0 -> AND(s,a).
        net.gate(g).kind = cval ? GateKind::kOr : GateKind::kAnd;
        net.connect(sel, g, dsel);
        net.connect(d, g, dd);
        return true;
      }
      return false;
    }
    default:
      return false;
  }
}

}  // namespace

bool simplify_gate(Network& net, GateId g) {
  if (!rewrite_gate(net, g)) return false;
  net.note_touch(g);  // kind, delay or pin delay may have changed in place
  return true;
}

std::size_t propagate_constants(Network& net) {
  // Only a gate with a constant fanin simplifies, and a simplification
  // hands a constant on only where the gate became a constant itself
  // (its fanouts) or a MUX was left as a buffer of one (the gate
  // itself). So the work starts at the fanouts of the constant gates.
  std::vector<GateId> next;  // gates to visit in the next round
  bool has_mux = false;
  for (std::uint32_t i = 0; i < net.gate_capacity(); ++i) {
    const Gate& gt = net.gate(GateId{i});
    if (gt.dead) continue;
    if (gt.kind == GateKind::kMux) has_mux = true;
    if (!is_constant(gt.kind)) continue;
    for (ConnId c : gt.fanouts) next.push_back(net.conn(c).to);
  }
  // Order of a round. Without MUXes any order reaches the same network:
  // the simplifications only delete connections and change kinds, and
  // a gate visited before all its constant fanins are known is visited
  // again when the next one appears, ending as if it had seen them at
  // once. A MUX simplification depends on which fanins are constant
  // when it runs, and it creates gates and connections whose ids (and
  // fanout-list positions) reach the output, so with MUXes present the
  // rounds follow topo_order() exactly as a sweep over every gate does.
  constexpr std::uint32_t kUnplaced = 0xffffffffu;
  std::vector<std::uint32_t> pos;
  const auto key = [&](GateId g) -> std::uint64_t {
    return has_mux ? (static_cast<std::uint64_t>(pos[g.value()]) << 32) |
                         g.value()
                   : g.value();
  };
  std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                      std::greater<std::uint64_t>>
      heap;
  std::size_t changed_total = 0;
  while (!next.empty()) {
    if (has_mux) {
      const std::vector<GateId> order = net.topo_order();
      pos.assign(net.gate_capacity(), kUnplaced);
      for (std::uint32_t i = 0; i < order.size(); ++i)
        pos[order[i].value()] = i;
    }
    for (GateId g : next) heap.push(key(g));
    next.clear();
    std::uint64_t last = ~std::uint64_t{0};
    while (!heap.empty()) {
      const std::uint64_t k = heap.top();
      heap.pop();
      if (k == last) continue;  // queued twice before its visit
      last = k;
      const GateId g{static_cast<std::uint32_t>(k & 0xffffffffu)};
      const Gate& gt = net.gate(g);
      if (gt.dead || !is_logic(gt.kind) || is_constant(gt.kind)) continue;
      if (!simplify_gate(net, g)) continue;
      ++changed_total;
      if (!is_constant(net.gate(g).kind)) {
        // A MUX whose select chose a constant data input is now a
        // buffer of that constant: the next round folds it.
        if (has_const_fanin(net, g, false) || has_const_fanin(net, g, true))
          next.push_back(g);
        continue;
      }
      for (ConnId c : net.gate(g).fanouts) {
        const GateId to = net.conn(c).to;
        if (has_mux && pos[to.value()] == kUnplaced)
          next.push_back(to);  // created this round: no position yet
        else
          heap.push(key(to));
      }
    }
  }
  net.self_check("propagate_constants");
  return changed_total;
}

std::size_t collapse_buffers(Network& net) {
  std::vector<GateId> bufs;
  for (std::uint32_t i = 0; i < net.gate_capacity(); ++i) {
    const Gate& gt = net.gate(GateId{i});
    if (!gt.dead && gt.kind == GateKind::kBuf) bufs.push_back(GateId{i});
  }
  // Splicing a buffer appends its fanouts to its source's fanout list,
  // so buffers that feed one another or share a source must go in
  // topological order to rebuild the lists (and sum the delays) as a
  // topological sweep would; other buffers commute.
  std::vector<GateId> srcs;
  bool interact = false;
  for (GateId g : bufs) {
    const GateId src = net.conn(net.gate(g).fanins[0]).from;
    interact = interact || net.gate(src).kind == GateKind::kBuf;
    srcs.push_back(src);
  }
  std::sort(srcs.begin(), srcs.end());
  interact = interact ||
             std::adjacent_find(srcs.begin(), srcs.end()) != srcs.end();
  if (interact) {
    bufs = net.topo_order();
    std::erase_if(bufs,
                  [&](GateId g) { return net.gate(g).kind != GateKind::kBuf; });
  }
  for (GateId g : bufs) {
    Gate& gt = net.gate(g);
    const ConnId in = gt.fanins[0];
    const GateId src = net.conn(in).from;
    const double through = net.conn(in).delay + gt.delay;
    auto fanouts = gt.fanouts;  // copy: reroute mutates the list
    for (ConnId c : fanouts) {
      net.conn(c).delay += through;  // the reroute touches the sink
      net.reroute_source(c, src);
    }
    net.remove_gate(g);
  }
  net.self_check("collapse_buffers");
  return bufs.size();
}

Network extract_output(const Network& net, std::size_t index) {
  Network out = net;
  for (std::size_t i = out.outputs().size(); i-- > 0;)
    if (i != index) out.remove_output(i);
  out.sweep();
  return out;
}

void simplify(Network& net) {
  for (;;) {
    std::size_t work = propagate_constants(net);
    work += collapse_buffers(net);
    work += net.sweep();
    if (work == 0) break;
  }
}

}  // namespace kms

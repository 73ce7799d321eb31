#include "src/analysis/scoap.hpp"

#include <algorithm>

namespace kms::analysis {
namespace {

using U = std::uint64_t;
constexpr U kInf = kScoapInfinity;

std::uint32_t clamp(U v) {
  return v >= kInf ? kScoapInfinity : static_cast<std::uint32_t>(v);
}

U sat_add(U a, U b) { return a >= kInf || b >= kInf ? kInf : a + b; }

/// Minimum cost over input-parity assignments of an XOR tree: fold the
/// inputs through a two-state DP (cheapest cost to reach even/odd
/// parity so far).
void xor_costs(const std::vector<U>& c0, const std::vector<U>& c1,
               U* even, U* odd) {
  U e = 0, o = kInf;
  for (std::size_t i = 0; i < c0.size(); ++i) {
    const U ne = std::min(sat_add(e, c0[i]), sat_add(o, c1[i]));
    const U no = std::min(sat_add(o, c0[i]), sat_add(e, c1[i]));
    e = ne;
    o = no;
  }
  *even = e;
  *odd = o;
}

}  // namespace

ScoapMetrics compute_scoap(const Network& net) {
  const std::uint32_t cap = net.gate_capacity();
  ScoapMetrics m;
  m.cc0.assign(cap, kScoapInfinity);
  m.cc1.assign(cap, kScoapInfinity);
  m.co.assign(cap, kScoapInfinity);
  const std::vector<GateId> topo = net.topo_order();

  // ---- controllability: forward over the topological order ----
  for (GateId g : topo) {
    const Gate& gt = net.gate(g);
    std::vector<U> c0, c1;
    c0.reserve(gt.fanins.size());
    c1.reserve(gt.fanins.size());
    for (ConnId c : gt.fanins) {
      const GateId s = net.conn(c).from;
      c0.push_back(m.cc0[s.value()]);
      c1.push_back(m.cc1[s.value()]);
    }
    U v0 = kInf, v1 = kInf;
    switch (gt.kind) {
      case GateKind::kInput:
        v0 = v1 = 1;
        break;
      case GateKind::kConst0:
        v0 = 0;
        break;
      case GateKind::kConst1:
        v1 = 0;
        break;
      case GateKind::kBuf:
      case GateKind::kOutput:
        v0 = c0[0];
        v1 = c1[0];
        break;
      case GateKind::kNot:
        v0 = sat_add(c1[0], 1);
        v1 = sat_add(c0[0], 1);
        break;
      case GateKind::kAnd:
      case GateKind::kNand:
      case GateKind::kOr:
      case GateKind::kNor: {
        const bool cv = controlling_value(gt.kind);
        // Controlled output: one cheapest controlling input. Non-
        // controlled output: every input noncontrolling.
        U controlled = kInf, noncontrolled = 0;
        for (std::size_t i = 0; i < c0.size(); ++i) {
          controlled = std::min(controlled, cv ? c1[i] : c0[i]);
          noncontrolled = sat_add(noncontrolled, cv ? c0[i] : c1[i]);
        }
        const bool inv = is_inverting(gt.kind);
        // Output value when some input is controlling: cv for AND/OR,
        // !cv for NAND/NOR.
        U out_ctl = sat_add(controlled, 1);
        U out_nctl = sat_add(noncontrolled, 1);
        const bool ctl_val = cv != inv;
        v0 = ctl_val ? out_nctl : out_ctl;
        v1 = ctl_val ? out_ctl : out_nctl;
        break;
      }
      case GateKind::kXor:
      case GateKind::kXnor: {
        U even, odd;
        xor_costs(c0, c1, &even, &odd);
        const bool inv = gt.kind == GateKind::kXnor;
        v1 = sat_add(inv ? even : odd, 1);
        v0 = sat_add(inv ? odd : even, 1);
        break;
      }
      case GateKind::kMux: {
        // (s, a, b): out = s ? a : b.
        v1 = sat_add(std::min(sat_add(c1[0], c1[1]), sat_add(c0[0], c1[2])),
                     1);
        v0 = sat_add(std::min(sat_add(c1[0], c0[1]), sat_add(c0[0], c0[2])),
                     1);
        break;
      }
    }
    m.cc0[g.value()] = clamp(v0);
    m.cc1[g.value()] = clamp(v1);
  }

  // ---- observability: backward over the topological order ----
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const GateId g = *it;
    const Gate& gt = net.gate(g);
    if (gt.kind == GateKind::kOutput) m.co[g.value()] = 0;
    const U co_g = m.co[g.value()];
    // Propagate to each fanin: the cost of observing that pin through
    // this gate. A source's CO is the minimum over its fanout pins.
    for (std::size_t pin = 0; pin < gt.fanins.size(); ++pin) {
      const ConnId c = gt.fanins[pin];
      const GateId src = net.conn(c).from;
      U through = kInf;
      switch (gt.kind) {
        case GateKind::kOutput:
          through = co_g;
          break;
        case GateKind::kBuf:
        case GateKind::kNot:
          through = sat_add(co_g, 1);
          break;
        case GateKind::kAnd:
        case GateKind::kNand:
        case GateKind::kOr:
        case GateKind::kNor: {
          const bool cv = controlling_value(gt.kind);
          U sides = 0;
          for (std::size_t p = 0; p < gt.fanins.size(); ++p) {
            if (p == pin) continue;
            const GateId o = net.conn(gt.fanins[p]).from;
            sides = sat_add(sides,
                            cv ? m.cc0[o.value()] : m.cc1[o.value()]);
          }
          through = sat_add(sat_add(co_g, sides), 1);
          break;
        }
        case GateKind::kXor:
        case GateKind::kXnor: {
          U sides = 0;
          for (std::size_t p = 0; p < gt.fanins.size(); ++p) {
            if (p == pin) continue;
            const GateId o = net.conn(gt.fanins[p]).from;
            sides = sat_add(sides, std::min<U>(m.cc0[o.value()],
                                               m.cc1[o.value()]));
          }
          through = sat_add(sat_add(co_g, sides), 1);
          break;
        }
        case GateKind::kMux: {
          const GateId s = net.conn(gt.fanins[0]).from;
          const GateId a = net.conn(gt.fanins[1]).from;
          const GateId b = net.conn(gt.fanins[2]).from;
          if (pin == 1) {
            through = sat_add(sat_add(co_g, m.cc1[s.value()]), 1);
          } else if (pin == 2) {
            through = sat_add(sat_add(co_g, m.cc0[s.value()]), 1);
          } else {
            // Observing the select requires the data inputs to differ.
            const U diff =
                std::min(sat_add(m.cc0[a.value()], m.cc1[b.value()]),
                         sat_add(m.cc1[a.value()], m.cc0[b.value()]));
            through = sat_add(sat_add(co_g, diff), 1);
          }
          break;
        }
        default:
          break;  // inputs/constants have no fanins
      }
      m.co[src.value()] =
          clamp(std::min<U>(m.co[src.value()], through));
    }
  }
  return m;
}

}  // namespace kms::analysis

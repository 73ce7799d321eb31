#include "src/analysis/implication.hpp"

namespace kms::analysis {
namespace {

/// Per-call propagation state: three-valued assignment plus a FIFO of
/// gates whose local rules may fire again.
struct Prop {
  const Network& net;
  Implications out;
  std::vector<std::int8_t> val;   ///< -1 unknown, else 0/1
  std::vector<char> queued;
  std::vector<GateId> fifo;
  std::size_t head = 0;

  explicit Prop(const Network& n)
      : net(n),
        val(n.gate_capacity(), -1),
        queued(n.gate_capacity(), 0) {}

  void enqueue(GateId g) {
    if (queued[g.value()]) return;
    queued[g.value()] = 1;
    fifo.push_back(g);
  }

  /// Record g = v; returns false on conflict.
  bool assign(GateId g, bool v) {
    std::int8_t& slot = val[g.value()];
    if (slot == static_cast<std::int8_t>(v)) return true;
    if (slot != -1) {
      out.conflict = true;
      return false;
    }
    slot = static_cast<std::int8_t>(v);
    out.assigned.emplace_back(g, v);
    enqueue(g);
    for (ConnId c : net.gate(g).fanouts) enqueue(net.conn(c).to);
    return true;
  }

  /// Run the forward and backward rules of one gate. Returns false on
  /// conflict.
  bool evaluate(GateId g) {
    const Gate& gt = net.gate(g);
    const GateKind k = gt.kind;
    if (k == GateKind::kInput || is_constant(k)) return true;

    // Gather fanin values in pin order.
    std::vector<std::int8_t> in;
    in.reserve(gt.fanins.size());
    std::size_t known = 0;
    for (ConnId c : gt.fanins) {
      const std::int8_t v = val[net.conn(c).from.value()];
      in.push_back(v);
      if (v != -1) ++known;
    }
    const std::int8_t ov = val[g.value()];
    auto set_out = [&](bool v) { return assign(g, v); };
    auto set_in = [&](std::size_t pin, bool v) {
      return assign(net.conn(gt.fanins[pin]).from, v);
    };

    if (k == GateKind::kBuf || k == GateKind::kNot ||
        k == GateKind::kOutput) {
      const bool inv = k == GateKind::kNot;
      if (in[0] != -1 && !set_out(static_cast<bool>(in[0]) != inv))
        return false;
      if (ov != -1 && !set_in(0, static_cast<bool>(ov) != inv))
        return false;
      return true;
    }

    if (has_controlling_value(k)) {
      const bool cv = controlling_value(k);
      const bool inv = is_inverting(k);
      bool any_cv = false;
      for (const std::int8_t v : in)
        if (v == static_cast<std::int8_t>(cv)) any_cv = true;
      if (any_cv && !set_out(cv != inv)) return false;
      if (!any_cv && known == in.size() && !set_out(!cv != inv))
        return false;
      if (ov != -1) {
        const bool base = static_cast<bool>(ov) != inv;
        if (base != cv) {
          // Noncontrolled output: every input must be noncontrolling.
          for (std::size_t p = 0; p < in.size(); ++p)
            if (!set_in(p, !cv)) return false;
        } else if (known + 1 == in.size()) {
          // Unit rule: all known inputs noncontrolling, output
          // controlled — the one unknown input carries the controlling
          // value.
          bool all_ncv = true;
          std::size_t open = 0;
          for (std::size_t p = 0; p < in.size(); ++p) {
            if (in[p] == -1) {
              open = p;
            } else if (in[p] == static_cast<std::int8_t>(cv)) {
              all_ncv = false;
            }
          }
          if (all_ncv && !set_in(open, cv)) return false;
        }
      }
      return true;
    }

    if (k == GateKind::kXor || k == GateKind::kXnor) {
      const bool inv = k == GateKind::kXnor;
      bool parity = false;
      for (const std::int8_t v : in) parity ^= (v == 1);
      if (known == in.size()) {
        if (!set_out(parity != inv)) return false;
      } else if (known + 1 == in.size() && ov != -1) {
        // Parity unit rule: the one unknown input is determined.
        std::size_t open = 0;
        for (std::size_t p = 0; p < in.size(); ++p)
          if (in[p] == -1) open = p;
        const bool target = static_cast<bool>(ov) != inv;
        if (!set_in(open, target != parity)) return false;
      }
      return true;
    }

    if (k == GateKind::kMux) {
      // Fanins (s, a, b); out = s ? a : b.
      const std::int8_t s = in[0], a = in[1], b = in[2];
      if (s != -1) {
        const std::size_t sel = s == 1 ? 1 : 2;
        if (in[sel] != -1 && !set_out(in[sel] == 1)) return false;
        if (ov != -1 && !set_in(sel, static_cast<bool>(ov))) return false;
      }
      if (a != -1 && b != -1) {
        if (a == b && !set_out(a == 1)) return false;
        if (a != b && ov != -1 && !set_in(0, ov == a)) return false;
      }
      return true;
    }
    return true;
  }
};

}  // namespace

Implications ImplicationEngine::propagate(
    const std::vector<std::pair<GateId, bool>>& seeds) const {
  Prop p(net_);
  // Constant gates are facts of the circuit; seed them first so the
  // closure (and its recorded assignment list) is self-contained.
  for (std::uint32_t i = 0; i < net_.gate_capacity(); ++i) {
    const GateId g{i};
    const Gate& gt = net_.gate(g);
    if (gt.dead || !is_constant(gt.kind)) continue;
    if (!p.assign(g, gt.kind == GateKind::kConst1)) return std::move(p.out);
  }
  for (const auto& [g, v] : seeds)
    if (!p.assign(g, v)) return std::move(p.out);
  while (p.head < p.fifo.size()) {
    const GateId g = p.fifo[p.head++];
    p.queued[g.value()] = 0;
    if (!p.evaluate(g)) return std::move(p.out);
  }
  return std::move(p.out);
}

}  // namespace kms::analysis

#include "src/cnf/encoder.hpp"

#include <cassert>
#include <stdexcept>

namespace kms {

using sat::Lit;
using sat::Solver;
using sat::Var;

void encode_gate(Solver& s, GateKind kind, Var out,
                 const std::vector<Lit>& in, std::vector<Lit>& big) {
  const Lit o = sat::mk_lit(out);
  switch (kind) {
    case GateKind::kConst0:
      s.add_clause(~o);
      return;
    case GateKind::kConst1:
      s.add_clause(o);
      return;
    case GateKind::kInput:
      return;  // free variable
    case GateKind::kOutput:
    case GateKind::kBuf:
      s.add_clause(~o, in[0]);
      s.add_clause(o, ~in[0]);
      return;
    case GateKind::kNot:
      s.add_clause(~o, ~in[0]);
      s.add_clause(o, in[0]);
      return;
    case GateKind::kAnd:
    case GateKind::kNand: {
      const bool inv = kind == GateKind::kNand;
      const Lit y = inv ? ~o : o;
      // y -> each input; (all inputs) -> y.
      big.clear();
      for (Lit l : in) {
        s.add_clause(~y, l);
        big.push_back(~l);
      }
      big.push_back(y);
      s.add_clause(big);
      return;
    }
    case GateKind::kOr:
    case GateKind::kNor: {
      const bool inv = kind == GateKind::kNor;
      const Lit y = inv ? ~o : o;
      big.clear();
      for (Lit l : in) {
        s.add_clause(y, ~l);
        big.push_back(l);
      }
      big.push_back(~y);
      s.add_clause(big);
      return;
    }
    case GateKind::kXor:
    case GateKind::kXnor: {
      // Chain through helper variables: t_i = t_{i-1} xor in_i.
      Lit acc = in[0];
      if (in.size() == 1) {
        // Single-bit parity: xor degenerates to buf, xnor to not. The
        // chain below starts at i=1 and would leave o unconstrained.
        const Lit t = (kind == GateKind::kXnor) ? ~o : o;
        s.add_clause(~t, acc);
        s.add_clause(t, ~acc);
        return;
      }
      for (std::size_t i = 1; i < in.size(); ++i) {
        const bool last = (i + 1 == in.size());
        Lit t;
        if (last) {
          t = (kind == GateKind::kXnor) ? ~o : o;
        } else {
          t = sat::mk_lit(s.new_var());
        }
        const Lit a = acc, b = in[i];
        // t = a xor b.
        s.add_clause(~t, a, b);
        s.add_clause(~t, ~a, ~b);
        s.add_clause(t, ~a, b);
        s.add_clause(t, a, ~b);
        acc = t;
      }
      return;
    }
    case GateKind::kMux: {
      // o = s ? a : b with in = (s, a, b).
      const Lit sel = in[0], a = in[1], b = in[2];
      s.add_clause(~sel, ~a, o);
      s.add_clause(~sel, a, ~o);
      s.add_clause(sel, ~b, o);
      s.add_clause(sel, b, ~o);
      return;
    }
  }
}

CircuitEncoding::CircuitEncoding(const Network& net, Solver& solver)
    : net_(net), solver_(solver), vars_(net.gate_capacity(), -1) {
  encode(net.topo_order());
}

CircuitEncoding::CircuitEncoding(const Network& net, Solver& solver,
                                 const std::vector<GateId>& order)
    : net_(net), solver_(solver), vars_(net.gate_capacity(), -1) {
  encode(order);
}

void CircuitEncoding::reencode(const std::vector<GateId>& order) {
  vars_.assign(net_.gate_capacity(), -1);
  encode(order);
}

void CircuitEncoding::encode(const std::vector<GateId>& order) {
  for (GateId g : order) vars_[g.value()] = solver_.new_var();
  encoded_gates_ = order.size();
  for (GateId g : order) {
    const Gate& gt = net_.gate(g);
    if (gt.kind == GateKind::kInput) continue;
    in_.clear();
    for (ConnId c : gt.fanins) {
      const Var sv = vars_[net_.conn(c).from.value()];
      assert(sv >= 0 && "gate list must be fanin-closed and ordered");
      in_.push_back(sat::mk_lit(sv));
    }
    encode_gate(solver_, gt.kind, vars_[g.value()], in_, clause_);
  }
}

std::vector<bool> CircuitEncoding::model_inputs() const {
  std::vector<bool> out;
  out.reserve(net_.inputs().size());
  for (GateId i : net_.inputs())
    out.push_back(encoded(i) && solver_.model_bool(var_of(i)));
  return out;
}

sat::Result check_equivalence(const Network& a, const Network& b,
                              std::vector<bool>* counterexample,
                              ResourceGovernor* governor) {
  if (a.inputs().size() != b.inputs().size() ||
      a.outputs().size() != b.outputs().size())
    throw std::invalid_argument("check_equivalence: interface mismatch");
  Solver solver;
  if (governor) solver.set_governor(governor);
  CircuitEncoding ea(a, solver);
  CircuitEncoding eb(b, solver);
  // Tie the inputs together.
  for (std::size_t i = 0; i < a.inputs().size(); ++i) {
    const Lit la = ea.lit_of(a.inputs()[i]);
    const Lit lb = eb.lit_of(b.inputs()[i]);
    solver.add_clause(~la, lb);
    solver.add_clause(la, ~lb);
  }
  // XOR each output pair into a difference literal; require one to be 1.
  std::vector<Lit> diffs;
  for (std::size_t o = 0; o < a.outputs().size(); ++o) {
    const Lit la = ea.lit_of(a.outputs()[o]);
    const Lit lb = eb.lit_of(b.outputs()[o]);
    const Lit d = sat::mk_lit(solver.new_var());
    solver.add_clause(~d, la, lb);
    solver.add_clause(~d, ~la, ~lb);
    solver.add_clause(d, ~la, lb);
    solver.add_clause(d, la, ~lb);
    diffs.push_back(d);
  }
  solver.add_clause(diffs);
  const sat::Result r = solver.solve();
  if (r == sat::Result::kSat && counterexample)
    *counterexample = ea.model_inputs();
  return r;
}

std::optional<std::vector<bool>> sat_inequivalence(const Network& a,
                                                   const Network& b) {
  std::vector<bool> cex;
  const sat::Result r = check_equivalence(a, b, &cex);
  // No governor, no budget: the solver runs to completion.
  assert(r != sat::Result::kUnknown);
  if (r != sat::Result::kSat) return std::nullopt;
  return cex;
}

bool sat_equivalent(const Network& a, const Network& b) {
  return !sat_inequivalence(a, b).has_value();
}

}  // namespace kms

// Exhaustive truth-table cross-check of the CNF encoder against the
// logic simulator: for every gate kind and every fanin arity up to 6,
// every input assignment must produce the same output value through
// encode_gate()/CircuitEncoding as through sim's eval paths. The proof
// pipeline trusts the encoder (a DRAT certificate proves the *CNF*
// unsatisfiable, not the netlist claim — see DESIGN.md §10); this test
// is the evidence backing that trust.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/cnf/encoder.hpp"
#include "src/netlist/gate.hpp"
#include "src/netlist/network.hpp"
#include "src/sat/solver.hpp"
#include "src/sim/simulator.hpp"

namespace kms {
namespace {

using sat::mk_lit;
using sat::Solver;
using sat::Var;

struct KindArity {
  GateKind kind;
  std::uint32_t min_arity, max_arity;
};

const std::vector<KindArity>& variadic_kinds() {
  static const std::vector<KindArity> kinds = {
      {GateKind::kBuf, 1, 1},  {GateKind::kNot, 1, 1},
      {GateKind::kAnd, 1, 6}, {GateKind::kOr, 1, 6},
      {GateKind::kNand, 1, 6}, {GateKind::kNor, 1, 6},
      {GateKind::kXor, 1, 6}, {GateKind::kXnor, 1, 6},
      {GateKind::kMux, 3, 3},
  };
  return kinds;
}

std::string label(GateKind kind, std::uint32_t n) {
  return std::string(gate_kind_name(kind)) + "/" + std::to_string(n);
}

// encode_gate() against eval_gate(): the encoding must FORCE the output
// variable to the truth-table value in both polarities — SAT when the
// output is asserted to the expected value, UNSAT when asserted to its
// complement (so no encoding leaves the output underconstrained).
TEST(CnfExhaustiveTest, EncodeGateMatchesEvalGateAllArities) {
  for (const KindArity& ka : variadic_kinds()) {
    for (std::uint32_t n = ka.min_arity; n <= ka.max_arity; ++n) {
      Solver solver;
      std::vector<Var> in;
      std::vector<sat::Lit> in_lits;
      for (std::uint32_t i = 0; i < n; ++i) {
        in.push_back(solver.new_var());
        in_lits.push_back(mk_lit(in.back()));
      }
      const Var out = solver.new_var();
      std::vector<sat::Lit> scratch;
      encode_gate(solver, ka.kind, out, in_lits, scratch);
      for (std::uint32_t row = 0; row < (1u << n); ++row) {
        const bool expect = eval_gate(ka.kind, row, n);
        std::vector<sat::Lit> assume;
        for (std::uint32_t i = 0; i < n; ++i)
          assume.push_back(mk_lit(in[i], /*negated=*/((row >> i) & 1) == 0));
        assume.push_back(mk_lit(out, /*negated=*/!expect));
        EXPECT_EQ(solver.solve(assume), sat::Result::kSat)
            << label(ka.kind, n) << " row " << row
            << ": expected output value unsatisfiable";
        assume.back() = mk_lit(out, /*negated=*/expect);
        EXPECT_EQ(solver.solve(assume), sat::Result::kUnsat)
            << label(ka.kind, n) << " row " << row
            << ": complement output value satisfiable";
      }
    }
  }
}

// CircuitEncoding against eval_once() on single-gate cones: the
// network-level encoding (gate variables, constants, output markers)
// must agree with the simulator on every assignment.
TEST(CnfExhaustiveTest, CircuitEncodingMatchesSimulatorOnCones) {
  for (const KindArity& ka : variadic_kinds()) {
    for (std::uint32_t n = ka.min_arity; n <= ka.max_arity; ++n) {
      Network net("cone_" + label(ka.kind, n));
      std::vector<GateId> pis;
      for (std::uint32_t i = 0; i < n; ++i)
        pis.push_back(net.add_input("i" + std::to_string(i)));
      const GateId g = net.add_gate(ka.kind, pis);
      net.add_output("f", g);

      for (std::uint32_t row = 0; row < (1u << n); ++row) {
        std::vector<bool> pi_values(n);
        for (std::uint32_t i = 0; i < n; ++i) pi_values[i] = (row >> i) & 1;
        const std::vector<bool> simulated = eval_once(net, pi_values);
        ASSERT_EQ(simulated.size(), 1u);

        Solver solver;
        CircuitEncoding enc(net, solver);
        std::vector<sat::Lit> assume;
        for (std::uint32_t i = 0; i < n; ++i)
          assume.push_back(enc.lit_of(pis[i], /*negated=*/!pi_values[i]));
        ASSERT_EQ(solver.solve(assume), sat::Result::kSat)
            << label(ka.kind, n) << " row " << row;
        EXPECT_EQ(solver.model_bool(enc.var_of(g)), simulated[0])
            << label(ka.kind, n) << " row " << row;
        // And the value is forced, not merely preferred.
        assume.push_back(enc.lit_of(g, /*negated=*/simulated[0]));
        EXPECT_EQ(solver.solve(assume), sat::Result::kUnsat)
            << label(ka.kind, n) << " row " << row;
      }
    }
  }
}

// Constants inside a cone: AND/OR with one constant fanin must encode
// to the simulator's value for both polarities of the other input.
TEST(CnfExhaustiveTest, ConstantFaninsMatchSimulator) {
  for (const GateKind cst : {GateKind::kConst0, GateKind::kConst1}) {
    for (const GateKind kind : {GateKind::kAnd, GateKind::kOr,
                                GateKind::kXor, GateKind::kNand}) {
      Network net("const_cone");
      const GateId a = net.add_input("a");
      const GateId c = net.add_gate(cst, {});
      const GateId g = net.add_gate(kind, {a, c});
      net.add_output("f", g);
      for (const bool av : {false, true}) {
        const std::vector<bool> simulated = eval_once(net, {av});
        Solver solver;
        CircuitEncoding enc(net, solver);
        ASSERT_EQ(solver.solve({enc.lit_of(a, !av)}), sat::Result::kSat);
        EXPECT_EQ(solver.model_bool(enc.var_of(g)), simulated[0])
            << gate_kind_name(kind) << " with " << gate_kind_name(cst)
            << " a=" << av;
      }
    }
  }
}

}  // namespace
}  // namespace kms

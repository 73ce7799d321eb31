#include "src/core/kms.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/atpg/atpg.hpp"
#include "src/cnf/encoder.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/sim/simulator.hpp"
#include "src/timing/sensitize.hpp"
#include "src/timing/sta.hpp"

namespace kms {
namespace {

void expect_kms_contract(Network net, SensitizationMode mode,
                         bool exhaustive = true) {
  decompose_to_simple(net);
  Network original = net;
  // The paper's guarantee is on the viability delay measure: "The
  // proofs still hold for viability analysis of delay estimation, even
  // while using the static sensitization condition" (Section VI).
  const double before_viab =
      computed_delay(net, SensitizationMode::kViability).delay;
  const double before_topo = topological_delay(net);
  KmsOptions opts;
  opts.mode = mode;
  opts.max_iterations = 2000;
  const KmsStats stats = kms_make_irredundant(net, opts);
  ASSERT_EQ(net.check(), "");
  // 1. Function preserved.
  if (exhaustive && net.inputs().size() <= 16) {
    EXPECT_TRUE(exhaustive_equiv(original, net).equivalent);
  } else {
    EXPECT_TRUE(sat_equivalent(original, net));
  }
  // 2. Viability-computed delay did not increase (nor did the
  //    topological bound). Only guaranteed when the loop completed.
  if (!stats.iteration_cap_hit) {
    EXPECT_LE(computed_delay(net, SensitizationMode::kViability).delay,
              before_viab + 1e-9);
  }
  EXPECT_LE(topological_delay(net), before_topo + 1e-9);
  // 3. Fully testable.
  EXPECT_EQ(count_redundancies(net), 0u);
}

TEST(KmsTest, CarrySkip42Static) {
  expect_kms_contract(carry_skip_adder(4, 2), SensitizationMode::kStatic);
}

TEST(KmsTest, CarrySkip42Viability) {
  expect_kms_contract(carry_skip_adder(4, 2), SensitizationMode::kViability);
}

TEST(KmsTest, CarrySkip63Static) {
  expect_kms_contract(carry_skip_adder(6, 3), SensitizationMode::kStatic);
}

TEST(KmsTest, RippleAdderUnchangedDelay) {
  // Already irredundant: the loop should not fire and the final circuit
  // must keep its delay.
  Network net = ripple_carry_adder(4);
  decompose_to_simple(net);
  KmsOptions opts;
  const KmsStats stats = kms_make_irredundant(net, opts);
  EXPECT_EQ(stats.constants_set, 0u);
  EXPECT_EQ(stats.removal.removed, 0u);
  EXPECT_DOUBLE_EQ(stats.final_topo_delay, stats.initial_topo_delay);
}

TEST(KmsTest, UnitDelayCarrySkipFamilyDelaysDropByTwo) {
  // Section VIII: "the delay (using a unit gate delay model) decreases
  // by 2 gate delays in all the carry-skip circuits."
  for (auto [bits, block] : {std::pair<std::size_t, std::size_t>{4, 2},
                             {4, 4},
                             {8, 2},
                             {8, 4}}) {
    Network net = carry_skip_adder(bits, block);
    decompose_to_simple(net);
    apply_unit_delays(net);
    Network original = net;
    const KmsStats stats = kms_make_irredundant(net, {});
    EXPECT_TRUE(sat_equivalent(original, net)) << bits << "." << block;
    EXPECT_EQ(count_redundancies(net), 0u) << bits << "." << block;
    EXPECT_LT(stats.final_topo_delay, stats.initial_topo_delay)
        << bits << "." << block;
  }
}

TEST(KmsTest, DuplicationOccursWhenPathSharesGates) {
  // In multi-block adders the unsensitizable ripple path runs through
  // multi-fanout gates (block carries feed sum XORs), so the algorithm
  // must duplicate.
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  apply_unit_delays(net);
  const KmsStats stats = kms_make_irredundant(net, {});
  EXPECT_GT(stats.duplicated_gates, 0u);
}

TEST(KmsTest, MaxFanoutGrowthIsModest) {
  // Section VI.2: "In the 2-b carry-skip adder, after removing
  // redundancies, there is an increase in fan out of at most one for
  // any gate."
  Network net = carry_skip_adder(2, 2);
  decompose_to_simple(net);
  apply_unit_delays(net);
  const KmsStats stats = kms_make_irredundant(net, {});
  EXPECT_LE(stats.final_max_fanout, stats.initial_max_fanout + 1);
}

// Section VI: the algorithm runs on simple gates. A network that still
// holds an XOR, XNOR or MUX is rejected by name, not transformed.
TEST(KmsTest, RejectsComplexGates) {
  Network net("cx");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId s = net.add_input("s");
  const GateId x = net.add_gate(GateKind::kXor, {a, b}, 1.0, "x1");
  const GateId m = net.add_gate(GateKind::kMux, {s, a, x}, 1.0, "m1");
  net.add_output("f", m);
  try {
    kms_make_irredundant(net, {});
    ADD_FAILURE() << "complex gates accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("x1 (xor)"), std::string::npos)
        << e.what();
  }
  decompose_to_simple(net);
  EXPECT_NO_THROW(kms_make_irredundant(net, {}));
}

// The surgery folds constants on simple gates only: a constant reaching
// a MUX is rejected by name.
TEST(KmsTest, PropagateConstantsRejectsMux) {
  Network net("cm");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId s = net.add_input("s");
  const GateId m = net.add_gate(GateKind::kMux, {s, a, b}, 1.0, "m1");
  net.add_output("f", m);
  net.set_conn_constant(net.gate(m).fanins[0], true);
  try {
    propagate_constants(net);
    ADD_FAILURE() << "constant folded into a MUX";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("m1 (mux); decompose_to_simple"),
              std::string::npos)
        << e.what();
  }
}

// Removal rejects a MUX before its first edit, so a run never stops
// half way through its commits.
TEST(KmsTest, RemovalRejectsMuxUpFront) {
  Network net("rm");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId s = net.add_input("s");
  // a & !a is redundant logic the removal would delete first.
  const GateId na = net.add_gate(GateKind::kNot, {a}, 1.0);
  const GateId r = net.add_gate(GateKind::kAnd, {a, na}, 1.0);
  const GateId o = net.add_gate(GateKind::kOr, {r, b}, 1.0);
  const GateId m = net.add_gate(GateKind::kMux, {s, o, a}, 1.0, "m1");
  net.add_output("f", m);
  const std::string before = write_blif_string(net);
  try {
    remove_redundancies(net);
    ADD_FAILURE() << "MUX accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("remove_redundancies: complex gate "
                                         "m1 (mux)"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(write_blif_string(net), before);
  decompose_to_simple(net);
  EXPECT_GT(remove_redundancies(net).removed, 0u);
}

TEST(KmsTest, LoopDisabledLeavesRedundancies) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  KmsOptions opts;
  opts.remove_remaining = false;
  kms_make_irredundant(net, opts);
  // The loop only fixes the longest-path redundancies; without the final
  // phase some redundancy may remain — but the circuit must stay correct.
  Network rca = ripple_carry_adder(4);
  decompose_to_simple(rca);
  EXPECT_TRUE(exhaustive_equiv(net, rca).equivalent);
}

TEST(KmsTest, WorksOnRandomRedundantCircuits) {
  for (std::uint64_t seed = 200; seed < 206; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = seed;
    opts.gates = 30;
    opts.inputs = 7;
    opts.allow_xor = false;
    expect_kms_contract(random_network(opts), SensitizationMode::kStatic);
  }
}

}  // namespace
}  // namespace kms

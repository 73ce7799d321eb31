#include "src/atpg/redundancy.hpp"

#include <gtest/gtest.h>

#include "src/atpg/atpg.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/netlist/transform.hpp"
#include "src/sim/simulator.hpp"
#include "src/timing/sensitize.hpp"
#include "src/timing/sta.hpp"

namespace kms {
namespace {

TEST(RedundancyRemovalTest, MakesCarrySkipTestable) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  Network orig = net;
  const auto r = remove_redundancies(net);
  EXPECT_GT(r.removed, 0u);
  EXPECT_EQ(net.check(), "");
  EXPECT_TRUE(exhaustive_equiv(orig, net).equivalent);
  EXPECT_EQ(count_redundancies(net), 0u);
}

TEST(RedundancyRemovalTest, NaiveRemovalSlowsCarrySkipAdder) {
  // The motivating observation (Sections I and III): straightforward
  // redundancy removal on the carry-skip adder deletes the skip chain
  // and the circuit slows down to ripple speed. "Speed" is the computed
  // delay — the longest *sensitizable* path; the topological longest
  // path of the carry-skip adder is a false path.
  Network net = carry_skip_adder(8, 2);
  decompose_to_simple(net);
  apply_unit_delays(net);
  const double before =
      computed_delay(net, SensitizationMode::kStatic).delay;
  remove_redundancies(net);
  const double after =
      computed_delay(net, SensitizationMode::kStatic).delay;
  EXPECT_GT(after, before);
}

TEST(RedundancyRemovalTest, IdempotentOnIrredundantCircuit) {
  Network net = ripple_carry_adder(3);
  decompose_to_simple(net);
  const std::size_t gates = net.count_gates();
  const auto r = remove_redundancies(net);
  EXPECT_EQ(r.removed, 0u);
  EXPECT_EQ(net.count_gates(), gates);
}

TEST(RedundancyRemovalTest, RemovesMaskedDuplicateTerm) {
  Network net("m");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId t1 = net.add_gate(GateKind::kAnd, {a, b}, 1.0);
  const GateId t2 = net.add_gate(GateKind::kAnd, {a, b}, 1.0);
  const GateId o = net.add_gate(GateKind::kOr, {t1, t2}, 1.0);
  net.add_output("f", o);
  Network orig = net;
  remove_redundancies(net);
  EXPECT_TRUE(exhaustive_equiv(orig, net).equivalent);
  // One of the two AND terms must be gone.
  EXPECT_LE(net.count_gates(), 2u);
  EXPECT_EQ(count_redundancies(net), 0u);
}

TEST(RedundancyRemovalTest, RandomNetworksEndEquivalentAndTestable) {
  for (std::uint64_t seed = 70; seed < 74; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = seed;
    opts.gates = 25;
    Network net = random_network(opts);
    const Network orig = net;
    remove_redundancies(net);
    EXPECT_TRUE(exhaustive_equiv(orig, net).equivalent);
    EXPECT_EQ(count_redundancies(net), 0u);
  }
}

TEST(RedundancyRemovalTest, ApplyRemovalStem) {
  Network net("s");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId t = net.add_gate(GateKind::kAnd, {a, b}, 1.0);
  const GateId o = net.add_gate(GateKind::kOr, {t, a}, 1.0);
  net.add_output("f", o);
  const Fault f{Fault::Site::kStem, t, ConnId::invalid(), false};
  apply_redundancy_removal(net, f);
  EXPECT_EQ(net.gate(t).kind, GateKind::kConst0);
  simplify(net);
  // f == a now.
  EXPECT_TRUE(eval_once(net, {true, false})[0]);
  EXPECT_FALSE(eval_once(net, {false, true})[0]);
}

}  // namespace
}  // namespace kms

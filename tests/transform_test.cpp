#include "src/netlist/transform.hpp"

#include <gtest/gtest.h>

#include "src/sim/simulator.hpp"
#include "src/timing/sta.hpp"

namespace kms {
namespace {

TEST(TransformTest, DecomposeXorPreservesFunction) {
  Network net("x");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId x = net.add_gate(GateKind::kXor, {a, b}, 2.0);
  net.add_output("f", x);
  Network orig = net;
  EXPECT_EQ(decompose_to_simple(net), 1u);
  EXPECT_EQ(net.check(), "");
  for (std::uint32_t i = 0; i < net.gate_capacity(); ++i) {
    const Gate& g = net.gate(GateId{i});
    if (!g.dead) EXPECT_TRUE(!is_logic(g.kind) || is_simple(g.kind));
  }
  EXPECT_TRUE(exhaustive_equiv(orig, net).equivalent);
}

TEST(TransformTest, DecomposeXorPreservesPathLengths) {
  Network net("x");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId x = net.add_gate(GateKind::kXor, {a, b}, 2.0);
  net.conn(net.gate(x).fanins[0]).delay = 0.5;
  net.add_output("f", x);
  const double before = topological_delay(net);
  decompose_to_simple(net);
  EXPECT_DOUBLE_EQ(topological_delay(net), before);
}

TEST(TransformTest, DecomposeMuxPreservesFunctionAndDelay) {
  Network net("m");
  const GateId s = net.add_input("s");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId m = net.add_gate(GateKind::kMux, {s, a, b}, 2.0);
  net.add_output("f", m);
  Network orig = net;
  const double before = topological_delay(net);
  decompose_to_simple(net);
  EXPECT_EQ(net.check(), "");
  EXPECT_TRUE(exhaustive_equiv(orig, net).equivalent);
  EXPECT_DOUBLE_EQ(topological_delay(net), before);
}

TEST(TransformTest, DecomposeWideParity) {
  for (std::size_t n : {3u, 4u, 5u, 7u}) {
    Network net("wp");
    std::vector<GateId> ins;
    for (std::size_t i = 0; i < n; ++i)
      ins.push_back(net.add_input("x" + std::to_string(i)));
    const GateId x = net.add_gate(GateKind::kXor, ins, 2.0);
    const GateId xn = net.add_gate(GateKind::kXnor, ins, 2.0);
    net.add_output("p", x);
    net.add_output("np", xn);
    Network orig = net;
    const double before = topological_delay(net);
    decompose_to_simple(net);
    EXPECT_EQ(net.check(), "");
    EXPECT_TRUE(exhaustive_equiv(orig, net).equivalent);
    EXPECT_DOUBLE_EQ(topological_delay(net), before) << n;
    for (std::uint32_t i = 0; i < net.gate_capacity(); ++i) {
      const Gate& g = net.gate(GateId{i});
      if (!g.dead) {
        EXPECT_TRUE(!is_logic(g.kind) || is_simple(g.kind)) << n;
      }
    }
  }
}

TEST(TransformTest, PropagateConstantsThroughAnd) {
  Network net("c");
  const GateId a = net.add_input("a");
  const GateId c0 = net.const_gate(false);
  const GateId g = net.add_gate(GateKind::kAnd, {a, c0}, 1.0);
  net.add_output("f", g);
  propagate_constants(net);
  EXPECT_EQ(net.gate(g).kind, GateKind::kConst0);
}

TEST(TransformTest, PropagateConstantsDropsNoncontrolling) {
  Network net("c");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId c1 = net.const_gate(true);
  const GateId g = net.add_gate(GateKind::kAnd, {a, c1, b}, 1.0);
  net.add_output("f", g);
  propagate_constants(net);
  EXPECT_EQ(net.gate(g).kind, GateKind::kAnd);
  EXPECT_EQ(net.gate(g).fanins.size(), 2u);
}

TEST(TransformTest, WireConventionOnSingleInputAnd) {
  // AND(a, 1) must become a zero-delay buffer (Section VII convention).
  Network net("w");
  const GateId a = net.add_input("a");
  const GateId c1 = net.const_gate(true);
  const GateId g = net.add_gate(GateKind::kAnd, {a, c1}, 3.0);
  net.add_output("f", g);
  propagate_constants(net);
  EXPECT_EQ(net.gate(g).kind, GateKind::kBuf);
  EXPECT_DOUBLE_EQ(net.gate(g).delay, 0.0);
}

TEST(TransformTest, NandWithConstBecomesInverter) {
  Network net("w");
  const GateId a = net.add_input("a");
  const GateId c1 = net.const_gate(true);
  const GateId g = net.add_gate(GateKind::kNand, {a, c1}, 3.0);
  net.add_output("f", g);
  propagate_constants(net);
  EXPECT_EQ(net.gate(g).kind, GateKind::kNot);
  EXPECT_DOUBLE_EQ(net.gate(g).delay, 3.0);  // an inverter is not a wire
  EXPECT_FALSE(eval_once(net, {true})[0]);
  EXPECT_TRUE(eval_once(net, {false})[0]);
}

TEST(TransformTest, XorConstantFlipsPolarity) {
  Network net("x");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId c1 = net.const_gate(true);
  const GateId g = net.add_gate(GateKind::kXor, {a, c1, b}, 1.0);
  net.add_output("f", g);
  propagate_constants(net);
  EXPECT_EQ(net.gate(g).kind, GateKind::kXnor);
  // f = !(a ^ b)
  EXPECT_TRUE(eval_once(net, {false, false})[0]);
  EXPECT_FALSE(eval_once(net, {true, false})[0]);
}

TEST(TransformTest, CollapseBuffersFoldsDelay) {
  Network net("b");
  const GateId a = net.add_input("a");
  const GateId buf = net.add_gate(GateKind::kBuf, {a}, 1.5);
  net.conn(net.gate(buf).fanins[0]).delay = 0.5;
  const GateId g = net.add_gate(GateKind::kNot, {buf}, 1.0);
  net.add_output("f", g);
  const double before = topological_delay(net);
  EXPECT_EQ(collapse_buffers(net), 1u);
  EXPECT_EQ(net.check(), "");
  EXPECT_DOUBLE_EQ(topological_delay(net), before);
  EXPECT_EQ(net.count_gates(), 1u);
}

TEST(TransformTest, SimplifyIsIdempotent) {
  Network net("s");
  const GateId a = net.add_input("a");
  const GateId c1 = net.const_gate(true);
  const GateId g1 = net.add_gate(GateKind::kAnd, {a, c1}, 1.0);
  const GateId g2 = net.add_gate(GateKind::kOr, {g1, net.const_gate(false)},
                                 1.0);
  net.add_output("f", g2);
  simplify(net);
  const std::size_t gates = net.count_gates(true);
  simplify(net);
  EXPECT_EQ(net.count_gates(true), gates);
  EXPECT_EQ(net.check(), "");
  // f == a.
  EXPECT_TRUE(eval_once(net, {true})[0]);
  EXPECT_FALSE(eval_once(net, {false})[0]);
}

TEST(TransformTest, ExtractOutputKeepsOnlyOneCone) {
  Network net("e");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId g1 = net.add_gate(GateKind::kAnd, {a, b}, 1.0);
  const GateId g2 = net.add_gate(GateKind::kOr, {a, b}, 1.0);
  net.add_output("f0", g1);
  net.add_output("f1", g2);
  Network cone = extract_output(net, 1);
  EXPECT_EQ(cone.outputs().size(), 1u);
  EXPECT_EQ(cone.gate(cone.outputs()[0]).name, "f1");
  EXPECT_EQ(cone.count_gates(), 1u);
  EXPECT_EQ(cone.inputs().size(), 2u);  // PIs always kept
  EXPECT_EQ(cone.check(), "");
}

}  // namespace
}  // namespace kms

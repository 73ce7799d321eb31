#include "src/timing/path.hpp"

#include <gtest/gtest.h>


#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/netlist/transform.hpp"
#include "src/timing/sta.hpp"

namespace kms {
namespace {

TEST(PathTest, SingleChain) {
  Network net("c");
  const GateId a = net.add_input("a");
  const GateId g1 = net.add_gate(GateKind::kNot, {a}, 1.0);
  const GateId g2 = net.add_gate(GateKind::kNot, {g1}, 1.0);
  net.add_output("f", g2);
  PathEnumerator en(net);
  auto p = en.next();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->source, a);
  EXPECT_EQ(p->gates.size(), 3u);  // g1, g2, output marker
  EXPECT_DOUBLE_EQ(p->length, 2.0);
  EXPECT_DOUBLE_EQ(path_length(net, *p), 2.0);
  EXPECT_FALSE(en.next().has_value());
}

TEST(PathTest, NonIncreasingLengths) {
  RandomNetworkOptions opts;
  opts.seed = 5;
  opts.gates = 40;
  Network net = random_network(opts);
  PathEnumerator en(net);
  double prev = 1e100;
  std::size_t count = 0;
  while (auto p = en.next()) {
    EXPECT_LE(p->length, prev + 1e-9);
    EXPECT_NEAR(path_length(net, *p), p->length, 1e-9);
    prev = p->length;
    if (++count > 5000) break;
  }
  EXPECT_GT(count, 0u);
}

TEST(PathTest, FirstPathMatchesTopologicalDelay) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = seed;
    Network net = random_network(opts);
    PathEnumerator en(net);
    auto p = en.next();
    ASSERT_TRUE(p.has_value());
    EXPECT_NEAR(p->length, topological_delay(net), 1e-9) << "seed " << seed;
  }
}

TEST(PathTest, EnumeratesAllPathsOfDiamond) {
  // a -> {n1, n2} -> g: exactly two IO-paths.
  Network net("d");
  const GateId a = net.add_input("a");
  const GateId n1 = net.add_gate(GateKind::kNot, {a}, 1.0);
  const GateId n2 = net.add_gate(GateKind::kNot, {a}, 2.0);
  const GateId g = net.add_gate(GateKind::kAnd, {n1, n2}, 1.0);
  net.add_output("f", g);
  PathEnumerator en(net);
  std::vector<double> lengths;
  while (auto p = en.next()) lengths.push_back(p->length);
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_DOUBLE_EQ(lengths[0], 3.0);
  EXPECT_DOUBLE_EQ(lengths[1], 2.0);
}

TEST(PathTest, MultiEdgeBetweenSameGates) {
  // Two connections from the same NOT to the same AND with different
  // delays: two distinct paths (Definition 4.2's reason for modeling
  // connections explicitly).
  Network net("m");
  const GateId a = net.add_input("a");
  const GateId n = net.add_gate(GateKind::kNot, {a}, 1.0);
  const GateId g = net.add_gate(GateKind::kAnd, {n, n}, 1.0);
  net.conn(net.gate(g).fanins[1]).delay = 2.5;
  net.add_output("f", g);
  PathEnumerator en(net);
  std::vector<double> lengths;
  while (auto p = en.next()) lengths.push_back(p->length);
  ASSERT_EQ(lengths.size(), 2u);
  EXPECT_DOUBLE_EQ(lengths[0], 4.5);
  EXPECT_DOUBLE_EQ(lengths[1], 2.0);
}

TEST(PathTest, ArrivalTimesRankPaths) {
  Network net("a");
  const GateId a = net.add_input("a", 0.0);
  const GateId b = net.add_input("b", 5.0);
  const GateId g = net.add_gate(GateKind::kAnd, {a, b}, 1.0);
  net.add_output("f", g);
  PathEnumerator en(net);
  auto p1 = en.next();
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->source, b);
  EXPECT_DOUBLE_EQ(p1->length, 6.0);
  auto p2 = en.next();
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->source, a);
}

TEST(PathTest, LongestPathsReturnsTies) {
  Network net("t");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId g = net.add_gate(GateKind::kAnd, {a, b}, 1.0);
  net.add_output("f", g);
  const auto paths = longest_paths(net);
  EXPECT_EQ(paths.size(), 2u);
}

TEST(PathTest, PathCountMatchesDpCount) {
  // Count IO-paths by dynamic programming and compare with exhaustive
  // enumeration on small random circuits.
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = seed;
    opts.gates = 20;
    Network net = random_network(opts);
    // DP: paths from each gate to any output.
    std::vector<double> count(net.gate_capacity(), 0.0);
    const auto order = net.topo_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const Gate& gt = net.gate(*it);
      if (gt.kind == GateKind::kOutput) {
        count[it->value()] = 1.0;
        continue;
      }
      double c = 0;
      for (ConnId cn : gt.fanouts)
        if (!net.conn(cn).dead) c += count[net.conn(cn).to.value()];
      count[it->value()] = c;
    }
    double expected = 0;
    for (GateId i : net.inputs()) expected += count[i.value()];
    PathEnumerator en(net);
    std::size_t n = 0;
    while (en.next().has_value()) {
      if (++n > 200000) break;
    }
    EXPECT_DOUBLE_EQ(static_cast<double>(n), expected) << "seed " << seed;
  }
}

TEST(PathTest, FormatPathMentionsEndpoints) {
  Network net = carry_skip_adder(2, 2, {});
  PathEnumerator en(net);
  auto p = en.next();
  ASSERT_TRUE(p.has_value());
  const std::string s = format_path(net, *p);
  EXPECT_NE(s.find("->"), std::string::npos);
}

TEST(PathTest, ReseedReplaysTheExactSequence) {
  // reseed() must restart the enumeration from scratch — same paths,
  // same order — whether the suffix table is owned or caller-held.
  RandomNetworkOptions opts;
  opts.seed = 11;
  opts.gates = 40;
  const Network net = random_network(opts);
  const std::vector<double> suffix = compute_suffix(net);
  const auto check = [&](PathEnumerator& en, bool seeded) {
    std::vector<Path> first;
    while (auto p = en.next()) {
      first.push_back(std::move(*p));
      if (first.size() >= 200) break;
    }
    ASSERT_GT(first.size(), 1u);
    const std::uint64_t visits = en.last_seed_visits();
    EXPECT_EQ(visits, net.inputs().size());
    en.reseed();
    EXPECT_EQ(en.last_seed_visits(), visits);
    for (std::size_t i = 0; i < first.size(); ++i) {
      auto p = en.next();
      ASSERT_TRUE(p.has_value()) << "seeded=" << seeded << " i=" << i;
      EXPECT_EQ(*p, first[i]) << "seeded=" << seeded << " i=" << i;
    }
  };
  {
    PathEnumerator en(net);
    check(en, false);
  }
  {
    PathEnumerator en(net, suffix);
    check(en, true);
  }
}

}  // namespace
}  // namespace kms

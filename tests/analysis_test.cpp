// Static analysis subsystem unit tests: gate levels, the
// post-dominator tree, implication learning, SCOAP metrics, the ATPG
// layer's fault equivalence classes the analysis reports, the
// NL017-NL021 rules and the aggregated report. The soundness property
// suite for the SAT-free untestability verdicts lives in
// static_untestable_test.cpp.
#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "src/analysis/dominators.hpp"
#include "src/analysis/implication.hpp"
#include "src/analysis/levels.hpp"
#include "src/analysis/report.hpp"
#include "src/analysis/rules.hpp"
#include "src/analysis/scoap.hpp"
#include "src/atpg/fault.hpp"
#include "src/check/diagnostics.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"

namespace kms {
namespace {

using analysis::DominatorTree;
using analysis::ImplicationEngine;

/// Chain a -> n1 = NOT a -> n2 = NOT n1 -> output y: every gate has a
/// unique path to the single output, so the dominator chain is total.
constexpr const char* kChainBlif =
    ".model chain\n"
    ".inputs a\n"
    ".outputs y\n"
    ".names a n1\n0 1\n"
    ".names n1 y\n0 1\n"
    ".end\n";

/// f = ab + a'c + bc (the consensus circuit): bc is redundant, and the
/// stem of a fans out to reconvergent paths.
constexpr const char* kConsensusBlif =
    ".model consensus\n"
    ".inputs a b c\n"
    ".outputs f\n"
    ".names a b x\n11 1\n"
    ".names a c y\n01 1\n"
    ".names b c z\n11 1\n"
    ".names x y z f\n1-- 1\n-1- 1\n--1 1\n"
    ".end\n";

/// y = a AND (a AND b): the direct a branch into the outer AND is a
/// statically provable (blocked) redundancy.
constexpr const char* kStatredBlif =
    ".model statred\n"
    ".inputs a b\n"
    ".outputs y\n"
    ".names a b x\n11 1\n"
    ".names a x y\n11 1\n"
    ".end\n";

Network load(const char* blif) {
  Network net = read_blif_string(blif);
  decompose_to_simple(net);
  return net;
}

std::vector<Network> property_circuits() {
  std::vector<Network> nets;
  nets.push_back(load(kConsensusBlif));
  nets.push_back(load(kStatredBlif));
  nets.push_back(carry_skip_adder(4, 2));
  nets.push_back(parity_tree(8));
  for (std::uint64_t seed = 400; seed < 406; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = seed;
    opts.gates = 35;
    nets.push_back(random_network(opts));
  }
  for (Network& n : nets) decompose_to_simple(n);
  return nets;
}

bool is_source(const Gate& g) {
  return g.kind == GateKind::kInput || g.kind == GateKind::kConst0 ||
         g.kind == GateKind::kConst1;
}

// ---- levels --------------------------------------------------------------

TEST(AnalysisLevelsTest, SourcesAtZeroAndMonotoneAlongConnections) {
  for (const Network& net : property_circuits()) {
    const auto levels = analysis::gate_levels(net);
    for (const GateId g : net.topo_order()) {
      const Gate& gate = net.gate(g);
      if (is_source(gate)) {
        EXPECT_EQ(levels[g.value()], 0u);
        continue;
      }
      // A logic gate sits strictly above every fanin source; an output
      // marker takes its driver's level.
      for (const ConnId c : gate.fanins) {
        if (net.conn(c).dead) continue;
        const GateId src = net.conn(c).from;
        if (gate.kind == GateKind::kOutput)
          EXPECT_EQ(levels[g.value()], levels[src.value()]);
        else
          EXPECT_GT(levels[g.value()], levels[src.value()]);
      }
    }
  }
}

// ---- dominators ----------------------------------------------------------

TEST(AnalysisDominatorsTest, ChainCircuitHasTotalDominatorChain) {
  const Network net = load(kChainBlif);
  const DominatorTree dom(net);
  // Find the two NOT gates; the one feeding the output dominates the
  // other, and both reach the output.
  GateId first = GateId::invalid(), second = GateId::invalid();
  for (const GateId g : net.topo_order()) {
    if (net.gate(g).kind != GateKind::kNot) continue;
    const GateId src = net.conn(net.gate(g).fanins[0]).from;
    if (net.gate(src).kind == GateKind::kInput)
      first = g;
    else
      second = g;
  }
  ASSERT_TRUE(first.is_valid());
  ASSERT_TRUE(second.is_valid());
  EXPECT_TRUE(dom.reaches_output(first));
  EXPECT_TRUE(dom.dominates(second, first));
  EXPECT_FALSE(dom.dominates(first, second));
  const auto chain = dom.chain(first);
  EXPECT_TRUE(std::find(chain.begin(), chain.end(), second) != chain.end());
}

TEST(AnalysisDominatorsTest, IpdomBlocksEveryPathToAnOutput) {
  // Semantic property on every circuit: a DFS from g that refuses to
  // pass through ipdom(g) must never reach a primary output — that is
  // the definition the blocked rule's soundness rests on.
  for (const Network& net : property_circuits()) {
    const DominatorTree dom(net);
    std::vector<char> is_output(net.gate_capacity(), 0);
    for (const GateId g : net.topo_order())
      if (net.gate(g).kind == GateKind::kOutput) is_output[g.value()] = 1;
    for (const GateId g : net.topo_order()) {
      if (!dom.reaches_output(g)) continue;
      const GateId d = dom.ipdom(g);
      if (!d.is_valid()) continue;  // immediate pdom is the virtual sink
      std::vector<char> seen(net.gate_capacity(), 0);
      std::vector<GateId> stack{g};
      seen[g.value()] = 1;
      bool escaped = false;
      while (!stack.empty() && !escaped) {
        const GateId cur = stack.back();
        stack.pop_back();
        if (cur != g && is_output[cur.value()]) escaped = true;
        for (const ConnId c : net.gate(cur).fanouts) {
          if (net.conn(c).dead) continue;
          const GateId to = net.conn(c).to;
          if (to == d || seen[to.value()]) continue;
          seen[to.value()] = 1;
          stack.push_back(to);
        }
      }
      EXPECT_FALSE(escaped)
          << "ipdom does not block all paths from gate " << g.value();
    }
  }
}

// ---- implications --------------------------------------------------------

TEST(AnalysisImplicationTest, AndGateForwardAndBackwardRules) {
  const Network net = load(kStatredBlif);
  const ImplicationEngine imp(net);
  // Locate a = input "a", the inner AND x and the outer AND y.
  GateId a = GateId::invalid(), inner = GateId::invalid(),
         outer = GateId::invalid();
  for (const GateId g : net.topo_order()) {
    const Gate& gate = net.gate(g);
    if (gate.kind == GateKind::kInput && gate.name == "a") a = g;
    if (gate.kind == GateKind::kAnd) {
      bool feeds_output_marker = false;
      for (const ConnId c : gate.fanouts) {
        if (net.conn(c).dead) continue;
        if (net.gate(net.conn(c).to).kind == GateKind::kOutput)
          feeds_output_marker = true;
      }
      (feeds_output_marker ? outer : inner) = g;
    }
  }
  ASSERT_TRUE(a.is_valid());
  ASSERT_TRUE(inner.is_valid());
  ASSERT_TRUE(outer.is_valid());

  // Backward: outer = 1 forces both fanins, transitively a = b = 1.
  const auto just = imp.propagate({{outer, true}});
  EXPECT_FALSE(just.conflict);
  EXPECT_TRUE(just.implies(inner, true));
  EXPECT_TRUE(just.implies(a, true));

  // Conflict: a = 0 forces inner = 0 and outer = 0; seeding outer = 1
  // on top is unsatisfiable in the good circuit.
  const auto clash = imp.propagate({{a, false}, {outer, true}});
  EXPECT_TRUE(clash.conflict);

  // Forward: a = 0 alone closes to outer = 0 without conflict.
  const auto fwd = imp.propagate({{a, false}});
  EXPECT_FALSE(fwd.conflict);
  EXPECT_TRUE(fwd.implies(inner, false));
  EXPECT_TRUE(fwd.implies(outer, false));
}

TEST(AnalysisImplicationTest, ClosureIsDeterministic) {
  const Network net = load(kConsensusBlif);
  const ImplicationEngine imp(net);
  for (const GateId g : net.topo_order()) {
    for (const bool v : {false, true}) {
      const auto r1 = imp.propagate({{g, v}});
      const auto r2 = imp.propagate({{g, v}});
      EXPECT_EQ(r1.conflict, r2.conflict);
      EXPECT_EQ(r1.assigned, r2.assigned);
    }
  }
}

// ---- SCOAP ---------------------------------------------------------------

TEST(AnalysisScoapTest, InputsCostOneAndGatesAddDepth) {
  const Network net = load(kStatredBlif);
  const auto m = analysis::compute_scoap(net);
  for (const GateId g : net.topo_order()) {
    const Gate& gate = net.gate(g);
    if (gate.kind == GateKind::kInput) {
      EXPECT_EQ(m.cc0[g.value()], 1u);
      EXPECT_EQ(m.cc1[g.value()], 1u);
      EXPECT_TRUE(m.observable(g));
    }
    if (gate.kind == GateKind::kAnd) {
      // AND output 1 needs every input at 1: one plus the sum of fanin
      // CC1s; output 0 needs only the cheapest fanin at 0.
      std::uint32_t sum1 = 1, min0 = analysis::kScoapInfinity;
      for (const ConnId c : gate.fanins) {
        if (net.conn(c).dead) continue;
        const GateId src = net.conn(c).from;
        sum1 += m.cc1[src.value()];
        min0 = std::min(min0, m.cc0[src.value()]);
      }
      EXPECT_EQ(m.cc1[g.value()], sum1);
      EXPECT_EQ(m.cc0[g.value()], min0 + 1);
    }
  }
}

TEST(AnalysisScoapTest, UnreachableGatesAreUnobservable) {
  for (const Network& net : property_circuits()) {
    const auto m = analysis::compute_scoap(net);
    const DominatorTree dom(net);
    for (const GateId g : net.topo_order()) {
      // Observability through SCOAP and reachability through the
      // dominator machinery must agree on who can never be seen.
      if (!dom.reaches_output(g)) EXPECT_FALSE(m.observable(g));
    }
  }
}

// ---- fault collapsing ----------------------------------------------------

TEST(AnalysisCollapseTest, FaultClassesPartitionTheFaultList) {
  for (const Network& net : property_circuits()) {
    const auto full = enumerate_faults(net);
    const auto reps = collapsed_faults(net);
    const auto classes = fault_classes(net);
    // Every fault sits in exactly one class, and each class lists its
    // members in enumerate_faults order.
    std::vector<std::size_t> seen(full.size(), 0);
    auto position = [&full](const Fault& f) {
      return static_cast<std::size_t>(
          std::find(full.begin(), full.end(), f) - full.begin());
    };
    for (const auto& cls : classes) {
      ASSERT_FALSE(cls.empty());
      for (std::size_t i = 0; i < cls.size(); ++i) {
        const std::size_t at = position(cls[i]);
        ASSERT_LT(at, full.size()) << format_fault(net, cls[i]);
        ++seen[at];
        if (i > 0) {
          EXPECT_LT(position(cls[i - 1]), at);
        }
      }
    }
    for (std::size_t i = 0; i < full.size(); ++i)
      EXPECT_EQ(seen[i], 1u) << format_fault(net, full[i]);
    // The classes' first members are the collapsed list.
    std::vector<std::size_t> firsts;
    for (const auto& cls : classes) firsts.push_back(position(cls.front()));
    std::sort(firsts.begin(), firsts.end());
    ASSERT_EQ(firsts.size(), reps.size());
    for (std::size_t i = 0; i < reps.size(); ++i)
      EXPECT_EQ(full[firsts[i]], reps[i]) << format_fault(net, reps[i]);
    // Largest-first ordering is part of the contract (NL020 keys on it).
    for (std::size_t i = 1; i < classes.size(); ++i)
      EXPECT_GE(classes[i - 1].size(), classes[i].size());
  }
}

TEST(AnalysisCollapseTest, SimpleGateHasDominanceEdges) {
  // Each input of an AND gate is one dominance pair (output SA1
  // dominates the input's SA1): statred's two ANDs give four.
  const Network net = load(kStatredBlif);
  EXPECT_EQ(analysis::run_analysis(net).dominance_edges, 4u);
}

// ---- rules and report ----------------------------------------------------

TEST(AnalysisRulesTest, BlockedBranchFiresOnStatredOnly) {
  const Network statred = load(kStatredBlif);
  Diagnostics d;
  analysis::run_analysis_rules(statred, &d);
  bool nl019 = false;
  for (const Diagnostic& f : d.all()) {
    EXPECT_EQ(f.severity, Severity::kWarning);
    if (f.rule == "NL019") nl019 = true;
  }
  EXPECT_TRUE(nl019) << "statically redundant branch not reported";

  // An irredundant parity tree triggers none of the untestability rules.
  Network clean = parity_tree(8);
  decompose_to_simple(clean);
  Diagnostics none;
  analysis::run_analysis_rules(clean, &none);
  for (const Diagnostic& f : none.all())
    EXPECT_TRUE(f.rule != "NL017" && f.rule != "NL018" && f.rule != "NL019")
        << f.rule << " fired on an irredundant circuit: " << f.message;
}

TEST(AnalysisRulesTest, CappedReportIsTruncatedOnlyWhenAFindingIsDropped) {
  // Eight statred blocks, each with a blocked branch. Count the findings
  // uncapped, then rerun at exactly that cap and at one below it.
  Network net("statred_x8");
  for (int k = 0; k < 8; ++k) {
    const std::string s = std::to_string(k);
    const GateId a = net.add_input("a" + s);
    const GateId b = net.add_input("b" + s);
    const GateId x = net.add_gate(GateKind::kAnd, {a, b}, 1.0);
    net.add_output("y" + s, net.add_gate(GateKind::kAnd, {a, x}, 1.0));
  }
  Diagnostics uncapped;
  analysis::run_analysis_rules(net, &uncapped, 1000);
  const std::size_t n = uncapped.all().size();
  ASSERT_GE(n, 8u);
  EXPECT_FALSE(uncapped.truncated());

  Diagnostics exact;
  analysis::run_analysis_rules(net, &exact, n);
  EXPECT_EQ(exact.all().size(), n);
  EXPECT_FALSE(exact.truncated());

  Diagnostics over;
  analysis::run_analysis_rules(net, &over, n - 1);
  EXPECT_EQ(over.all().size(), n - 1);
  EXPECT_TRUE(over.truncated());
}

TEST(AnalysisRulesTest, RegistryCarriesTheAnalysisRules) {
  for (const char* id : {"NL017", "NL018", "NL019", "NL020", "NL021"}) {
    const RuleInfo* info = find_rule(id);
    ASSERT_NE(info, nullptr) << id;
    EXPECT_EQ(info->severity, Severity::kWarning) << id;
  }
}

TEST(AnalysisReportTest, StatredReportCountsTheBlockedFaults) {
  const Network net = load(kStatredBlif);
  const analysis::AnalysisReport rep = analysis::run_analysis(net);
  EXPECT_GT(rep.gates, 0u);
  EXPECT_GT(rep.fault_sites, 0u);
  EXPECT_GE(rep.blocked, 1u);
  EXPECT_GE(rep.static_untestable(), 1u);
  EXPECT_EQ(rep.total_faults, enumerate_faults(net).size());
  std::ostringstream json, text;
  rep.print_json(json);
  rep.print_text(text);
  EXPECT_NE(json.str().find("\"blocked\""), std::string::npos);
  EXPECT_FALSE(text.str().empty());
}

}  // namespace
}  // namespace kms

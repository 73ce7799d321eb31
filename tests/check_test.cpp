// Targeted tests for the netlist invariant checker: each test corrupts a
// network in one specific way (through the public API and the mutable
// gate()/conn() accessors) and asserts that exactly the expected rule id
// fires, anchored to the offending gate or connection.
#include <gtest/gtest.h>

#include <string>

#include "src/base/strings.hpp"
#include "src/check/checker.hpp"
#include "src/check/diagnostics.hpp"
#include "src/check/hooks.hpp"
#include "src/gen/adders.hpp"
#include "src/netlist/network.hpp"
#include "src/netlist/transform.hpp"

namespace kms {
namespace {

bool has_rule(const Diagnostics& diags, const std::string& rule) {
  for (const Diagnostic& d : diags.all())
    if (d.rule == rule) return true;
  return false;
}

Diagnostics run_checker(const Network& net, bool warnings = true) {
  CheckOptions opts;
  opts.warnings = warnings;
  return NetworkChecker(opts).run(net);
}

/// a, b -> g = a & b -> y. The minimal clean network most tests corrupt.
struct Rig {
  Network net{"rig"};
  GateId a, b, g, y;
  Rig() {
    a = net.add_input("a");
    b = net.add_input("b");
    g = net.add_gate(GateKind::kAnd, {a, b}, 1.0, "g");
    y = net.add_output("y", g);
  }
};

/// Deliberate corruption must not trip the per-op self-check hooks in a
/// KMS_CHECK_INVARIANTS build; park them for the duration of each test.
class CheckTest : public ::testing::Test {
 protected:
  void SetUp() override { uninstall_invariant_self_checks(); }
  void TearDown() override { install_invariant_self_checks(); }
};

TEST_F(CheckTest, CleanNetworkHasNoFindings) {
  Rig r;
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(diags.empty()) << diags.to_text();
}

TEST_F(CheckTest, CleanGeneratedAdderHasNoErrors) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  const Diagnostics diags = run_checker(net);
  EXPECT_EQ(diags.error_count(), 0u) << diags.to_text();
}

TEST_F(CheckTest, NL001_CycleViaReroute) {
  Rig r;
  // g2 consumes g; rerouting g's pin-0 fanin to g2 closes the loop.
  const GateId g2 = r.net.add_gate(GateKind::kAnd, {r.g, r.b}, 1.0, "g2");
  r.net.reroute_source(r.net.gate(r.g).fanins[0], g2);
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL001")) << diags.to_text();
  // The diagnostic names the gates on the cycle.
  bool named = false;
  for (const Diagnostic& d : diags.all())
    if (d.rule == "NL001" && d.message.find("'g2'") != std::string::npos)
      named = true;
  EXPECT_TRUE(named) << diags.to_text();
}

TEST_F(CheckTest, NL001_SelfLoop) {
  Rig r;
  r.net.conn(r.net.gate(r.g).fanins[0]).from = r.g;
  EXPECT_TRUE(has_rule(run_checker(r.net), "NL001"));
}

TEST_F(CheckTest, NL002_LiveConnTouchingDeadGate) {
  Rig r;
  r.net.gate(r.g).dead = true;  // conns a->g, b->g, g->y still live
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL002")) << diags.to_text();
}

TEST_F(CheckTest, NL003_ConnMissingFromSourceFanouts) {
  Rig r;
  r.net.gate(r.a).fanouts.clear();
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL003")) << diags.to_text();
  EXPECT_FALSE(has_rule(diags, "NL004"));
}

TEST_F(CheckTest, NL004_ConnMissingFromSinkFanins) {
  Rig r;
  const ConnId dropped = r.net.gate(r.g).fanins[1];
  r.net.gate(r.g).fanins.pop_back();
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL004")) << diags.to_text();
  bool anchored = false;
  for (const Diagnostic& d : diags.all())
    if (d.rule == "NL004" && d.conn == dropped) anchored = true;
  EXPECT_TRUE(anchored) << diags.to_text();
}

TEST_F(CheckTest, NL005_DeadAndOutOfRangeFanins) {
  Rig r;
  const ConnId c = r.net.gate(r.g).fanins[1];
  r.net.remove_conn(c);
  r.net.gate(r.g).fanins.push_back(c);             // dangling (dead) conn
  r.net.gate(r.g).fanins.push_back(ConnId{9999});  // out of range
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL005")) << diags.to_text();
}

TEST_F(CheckTest, NL006_StaleFanout) {
  Rig r;
  const ConnId c = r.net.gate(r.g).fanins[1];  // b -> g
  r.net.remove_conn(c);
  r.net.gate(r.b).fanouts.push_back(c);
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL006")) << diags.to_text();
}

TEST_F(CheckTest, NL007_DuplicatePinEntry) {
  Rig r;
  r.net.gate(r.g).fanins.push_back(r.net.gate(r.g).fanins[0]);
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL007")) << diags.to_text();
}

TEST_F(CheckTest, NL008_PinShapeViolations) {
  Rig r;
  const GateId empty_and = r.net.add_gate(GateKind::kAnd, {}, 1.0, "e");
  const GateId wide_not =
      r.net.add_gate(GateKind::kNot, {r.a, r.b}, 1.0, "w");
  (void)empty_and;
  (void)wide_not;
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL008")) << diags.to_text();
}

TEST_F(CheckTest, NL009_OutputMarkerWithFanout) {
  Rig r;
  const GateId h = r.net.add_gate(GateKind::kAnd, {r.a}, 1.0, "h");
  r.net.connect(r.y, h);
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL009")) << diags.to_text();
}

TEST_F(CheckTest, NL009_UnregisteredOutputMarker) {
  Rig r;
  const GateId h = r.net.add_gate(GateKind::kBuf, {r.g}, 0.0, "h");
  r.net.gate(h).kind = GateKind::kOutput;
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL009")) << diags.to_text();
}

TEST_F(CheckTest, NL010_DeadRegisteredInput) {
  Rig r;
  // Kill b's conn first so the only finding family is the registry's.
  r.net.remove_conn(r.net.gate(r.b).fanouts[0]);
  r.net.gate(r.b).dead = true;
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL010")) << diags.to_text();
}

TEST_F(CheckTest, NL011_DuplicateConstants) {
  Rig r;
  const GateId c1 = r.net.add_gate(GateKind::kAnd, {r.a}, 1.0);
  const GateId c2 = r.net.add_gate(GateKind::kAnd, {r.b}, 1.0);
  r.net.convert_to_constant(c1, false);
  r.net.convert_to_constant(c2, false);
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL011")) << diags.to_text();
  EXPECT_EQ(diags.error_count(), 0u) << diags.to_text();  // warning only
}

TEST_F(CheckTest, NL012_NegativeDelays) {
  Rig r;
  r.net.gate(r.g).delay = -1.0;
  r.net.conn(r.net.gate(r.g).fanins[0]).delay = -0.5;
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL012")) << diags.to_text();
  EXPECT_EQ(diags.error_count(), 2u) << diags.to_text();
}

TEST_F(CheckTest, NL013_OrphanConeIsWarning) {
  Rig r;
  const GateId o = r.net.add_gate(GateKind::kAnd, {r.a, r.b}, 1.0, "orphan");
  (void)o;
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL013")) << diags.to_text();
  EXPECT_EQ(diags.error_count(), 0u) << diags.to_text();
}

TEST_F(CheckTest, NL014_InterfaceNameCollision) {
  Rig r;
  r.net.add_input("a");  // second PI named "a"
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL014")) << diags.to_text();
}

TEST_F(CheckTest, NL015_UnusedPrimaryInput) {
  Rig r;
  r.net.add_input("idle");
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL015")) << diags.to_text();
  EXPECT_EQ(diags.error_count(), 0u);
}

TEST_F(CheckTest, NL016_ConstantDrivenGateSurvivesSweep) {
  Rig r;
  // Reroute g's pin-1 fanin to a constant: constant propagation should
  // have folded g, so the surviving constant-driven gate is flagged.
  const GateId one = r.net.add_gate(GateKind::kConst1, {}, 0.0, "one");
  r.net.reroute_source(r.net.gate(r.g).fanins[1], one);
  const Diagnostics diags = run_checker(r.net);
  EXPECT_TRUE(has_rule(diags, "NL016")) << diags.to_text();
  EXPECT_EQ(diags.error_count(), 0u);  // a warning, not an error

  // Warnings off (the enforce_invariants configuration): silent.
  EXPECT_FALSE(has_rule(run_checker(r.net, /*warnings=*/false), "NL016"));
  EXPECT_NO_THROW(enforce_invariants(r.net, "test"));
}

TEST_F(CheckTest, NL016_SilentOnConstantFeedingOnlyOutputs) {
  // A constant driving a primary output directly is legitimate (sweep
  // keeps it): NL016 targets *logic* gates with constant fanins.
  Network net("const_po");
  const GateId zero = net.add_gate(GateKind::kConst0, {}, 0.0, "zero");
  net.add_output("f", zero);
  EXPECT_FALSE(has_rule(run_checker(net), "NL016"));
}

TEST_F(CheckTest, WarningRulesCanBeDisabled) {
  Rig r;
  r.net.add_input("idle");
  r.net.add_gate(GateKind::kAnd, {r.a}, 1.0, "orphan");
  EXPECT_TRUE(run_checker(r.net, /*warnings=*/false).empty());
}

TEST_F(CheckTest, DiagnosticCapMarksTruncation) {
  Rig r;
  for (int i = 0; i < 10; ++i)
    r.net.gate(r.g).fanins.push_back(ConnId{9000 + i});
  CheckOptions opts;
  opts.max_diagnostics = 3;
  const Diagnostics diags = NetworkChecker(opts).run(r.net);
  EXPECT_EQ(diags.all().size(), 3u);
  EXPECT_TRUE(diags.truncated());
}

TEST_F(CheckTest, EnforceInvariantsThrowsOnErrorsOnly) {
  Rig clean;
  EXPECT_NO_THROW(enforce_invariants(clean.net, "test"));

  Rig warn;
  warn.net.add_input("idle");  // NL015, warning
  EXPECT_NO_THROW(enforce_invariants(warn.net, "test"));

  Rig bad;
  bad.net.gate(bad.g).delay = -1.0;
  try {
    enforce_invariants(bad.net, "unit-test-phase");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unit-test-phase"), std::string::npos) << what;
    EXPECT_NE(what.find("NL012"), std::string::npos) << what;
  }
}

TEST_F(CheckTest, JsonEmitterIsStructured) {
  Rig r;
  r.net.gate(r.g).delay = -1.0;
  const Diagnostics diags = run_checker(r.net);
  const std::string json = diags.to_json();
  EXPECT_NE(json.find("\"rule\":\"NL012\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gate\":" + std::to_string(r.g.value())),
            std::string::npos)
      << json;
}

TEST_F(CheckTest, JsonEscapesControlCharacters) {
  std::string quoted;
  json_append_quoted(&quoted, "a\"b\\c\nd");
  EXPECT_EQ(quoted, "\"a\\\"b\\\\c\\nd\"");
}

TEST_F(CheckTest, RuleTableIsWellFormed) {
  const auto& rules = all_rules();
  EXPECT_GE(rules.size(), 15u);
  for (const RuleInfo& r : rules) {
    EXPECT_EQ(find_rule(r.id), &r);
    EXPECT_NE(r.summary, nullptr);
  }
  EXPECT_EQ(find_rule("NL999"), nullptr);
}

// ---- self-check hook plumbing ----------------------------------------------

int g_hook_calls = 0;
void counting_hook(const Network&, const char*) { ++g_hook_calls; }

TEST_F(CheckTest, TransformPassesSelfCheckInAnyBuild) {
  Rig r;
  Network::set_self_check_hook(&counting_hook);
  g_hook_calls = 0;
  propagate_constants(r.net);
  collapse_buffers(r.net);
  decompose_to_simple(r.net);
  EXPECT_GE(g_hook_calls, 3);
  Network::set_self_check_hook(nullptr);
}

#ifdef KMS_CHECK_INVARIANTS
TEST_F(CheckTest, SurgeryOpsSelfCheckWhenCompiledIn) {
  Rig r;
  Network::set_self_check_hook(&counting_hook);
  g_hook_calls = 0;
  const GateId dup = r.net.duplicate_gate(r.g);
  (void)dup;
  r.net.sweep();
  EXPECT_GE(g_hook_calls, 2);
  Network::set_self_check_hook(nullptr);
}

TEST_F(CheckTest, CorruptingRerouteThrowsUnderArmedHooks) {
  Rig r;
  const GateId g2 = r.net.add_gate(GateKind::kAnd, {r.g, r.b}, 1.0, "g2");
  install_invariant_self_checks();
  EXPECT_THROW(r.net.reroute_source(r.net.gate(r.g).fanins[0], g2),
               CheckFailure);
}
#endif

}  // namespace
}  // namespace kms

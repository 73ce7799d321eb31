// IncrementalSta / TimingChecker suite (DESIGN.md §15).
//
// The load-bearing property: after ANY traced edit sequence, every
// maintained table equals a from-scratch compute_arrival/compute_suffix
// under exact double equality — the contract that lets the KMS loop
// consume the tables with bit-identical end states. The suite drives
// randomized edit walks (delay/arrival changes plus the production
// duplicate+constant surgery via kms_replay_loop_transform), audits
// whole KMS runs against TimingChecker's from-scratch recompute after
// every repair, checks that the record each loop transform and removal
// commit leaves covers the edit, and tampers each table to prove the
// checker's rules (NL022–NL028) actually fire.
#include "src/timing/incremental.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/atpg/atpg.hpp"
#include "src/atpg/fault_cache.hpp"
#include "src/atpg/redundancy.hpp"
#include "src/check/checker.hpp"
#include "src/core/kms.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/suite.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/journal.hpp"
#include "src/timing/checker.hpp"
#include "src/timing/path.hpp"
#include "src/timing/sensitize.hpp"
#include "src/timing/sta.hpp"
#include "tests/reference_surgery.hpp"

namespace kms {
namespace {

Network load_example(const std::string& name) {
  std::ifstream in(std::string(EXAMPLES_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  return read_blif_sequential(in).comb;
}

/// The exact-equality audit, spelled out so a failure names the table
/// and gate. EXPECT_EQ on doubles is bitwise-meaningful here: every
/// value is either a finite double produced by identical operations or
/// +/-infinity, never NaN.
void expect_tables_exact(const Network& net, const IncrementalSta& sta,
                         const std::string& ctx) {
  const std::vector<double> want_arrival = compute_arrival(net);
  const std::vector<double> want_suffix = compute_suffix(net);
  ASSERT_EQ(sta.arrival().size(), want_arrival.size()) << ctx;
  EXPECT_EQ(sta.delay(), delay_from_arrival(net, want_arrival)) << ctx;
  for (std::size_t i = 0; i < want_arrival.size(); ++i) {
    EXPECT_EQ(sta.arrival()[i], want_arrival[i]) << ctx << " arrival g" << i;
    EXPECT_EQ(sta.suffix()[i], want_suffix[i]) << ctx << " suffix g" << i;
  }
  // And the checker agrees.
  const TimingAudit audit = audit_incremental_sta(net, sta);
  EXPECT_TRUE(audit.ok()) << ctx << "\n" << audit.diagnostics.to_text();
}

std::vector<GateId> live_logic_gates(const Network& net) {
  std::vector<GateId> out;
  for (GateId g : net.topo_order()) {
    const Gate& gt = net.gate(g);
    if (gt.kind != GateKind::kInput && gt.kind != GateKind::kOutput &&
        !is_constant(gt.kind))
      out.push_back(g);
  }
  return out;
}

TEST(IncrementalStaTest, FreshEngineMatchesFullPass) {
  for (Network net : {ripple_carry_adder(8), carry_skip_adder(8, 2),
                      load_example("parity4.blif"),
                      load_example("statred.blif")}) {
    decompose_to_simple(net);
    IncrementalSta sta(net);
    expect_tables_exact(net, sta, net.name());
    EXPECT_EQ(sta.delay(), topological_delay(net));
  }
}

TEST(IncrementalStaTest, RandomEditWalksStayExact) {
  for (const auto& [bits, block] :
       {std::pair<std::size_t, std::size_t>{4, 2}, {8, 2}, {8, 4}}) {
    Network net = carry_skip_adder(bits, block);
    decompose_to_simple(net);
    IncrementalSta sta(net);
    std::uint64_t full_visits = 0;
    std::mt19937_64 rng(1000 * bits + block);
    std::uniform_real_distribution<double> delay_dist(0.0, 3.0);
    for (int step = 0; step < 40; ++step) {
      TransformTrace trace;
      const TraceScope tracing(net, trace);
      const std::vector<GateId> gates = live_logic_gates(net);
      switch (rng() % 4) {
        case 0: {  // gate delay change
          const GateId g = gates[rng() % gates.size()];
          net.gate(g).delay = delay_dist(rng);
          net.note_touch(g);
          break;
        }
        case 1: {  // fanin connection delay change
          const GateId g = gates[rng() % gates.size()];
          const Gate& gt = net.gate(g);
          if (gt.fanins.empty()) continue;
          net.conn(gt.fanins[rng() % gt.fanins.size()]).delay =
              delay_dist(rng);
          // Touching the sink covers both directions: the sink re-pulls
          // its arrival, and the sink's fanin sources (the conn's
          // source among them) re-pull their suffix.
          net.note_touch(g);
          break;
        }
        case 2: {  // primary-input arrival change
          const auto& pis = net.inputs();
          const GateId pi = pis[rng() % pis.size()];
          net.gate(pi).arrival = delay_dist(rng);
          net.note_touch(pi);
          break;
        }
        default: {  // the production loop surgery, SAT-free
          try {
            kms_replay_loop_transform(net);
          } catch (const std::runtime_error&) {
            continue;  // no IO-path left to transform
          }
          break;
        }
      }
      sta.apply(trace);
      // A full recompute would visit every live gate forward and back.
      for (std::uint32_t i = 0; i < net.gate_capacity(); ++i)
        full_visits += net.gate(GateId{i}).dead ? 0 : 2;
      expect_tables_exact(net, sta,
                          net.name() + " step " + std::to_string(step));
    }
    // Repairs must have been doing real incremental work, not hidden
    // rebuilds: strictly fewer gate visits than per-edit full passes.
    EXPECT_GT(sta.stats().applies, 0u);
    EXPECT_LT(sta.stats().repaired, full_visits);
  }
}

TEST(IncrementalStaTest, ReplaySurgerySequenceStaysExact) {
  // Drive the exact duplicate-prefix + constant-assertion surgery the
  // KMS loop performs, repeatedly, on the paper's redundancy-rich
  // circuit family.
  Network net = carry_skip_adder(8, 2);
  decompose_to_simple(net);
  IncrementalSta sta(net);
  for (int i = 0; i < 12; ++i) {
    TransformTrace trace;
    try {
      const TraceScope tracing(net, trace);
      kms_replay_loop_transform(net);
    } catch (const std::runtime_error&) {
      break;
    }
    sta.apply(trace);
    expect_tables_exact(net, sta, "surgery " + std::to_string(i));
  }
  EXPECT_GT(sta.stats().applies, 0u);
}

/// Liveness and from-scratch timing of a network, before an edit.
struct Snapshot {
  std::vector<bool> live;
  std::vector<double> arrival;
  std::vector<double> suffix;
};

Snapshot snapshot(const Network& net) {
  Snapshot s;
  for (std::uint32_t i = 0; i < net.gate_capacity(); ++i)
    s.live.push_back(!net.gate(GateId{i}).dead);
  s.arrival = compute_arrival(net);
  s.suffix = compute_suffix(net);
  return s;
}

/// The record of one edit covers it: every gate that died is touched,
/// and every surviving gate whose arrival or suffix changed lies in the
/// edit region the fault cache invalidates. Gates born by the edit lie
/// at or above the snapshot's capacity and need no record.
void expect_edit_covered(const Network& net, const Snapshot& before,
                         const TransformTrace& trace, const std::string& ctx) {
  const std::vector<bool> region = edit_region(net, trace);
  std::vector<bool> touched(net.gate_capacity(), false);
  for (GateId g : trace.touched) touched[g.value()] = true;
  const std::vector<double> arrival = compute_arrival(net);
  const std::vector<double> suffix = compute_suffix(net);
  for (std::uint32_t i = 0; i < before.live.size(); ++i) {
    if (!before.live[i]) continue;
    if (net.gate(GateId{i}).dead) {
      EXPECT_TRUE(touched[i]) << ctx << ": death of g" << i << " unrecorded";
    } else if (arrival[i] != before.arrival[i] ||
               suffix[i] != before.suffix[i]) {
      EXPECT_TRUE(region[i]) << ctx << ": timing of g" << i
                             << " changed outside the edit region";
    }
  }
}

TEST(IncrementalStaTest, RecordsCoverLoopAndRemovalEdits) {
  // The loop-oracle circuits: every loop transform (its bytes checked
  // against the whole-network reference surgery), then every removal
  // commit of a one-at-a-time scan. After each, the record covers the
  // edit and the engine repaired from it stays exact.
  std::vector<Network> nets = {carry_skip_adder(4, 2), carry_skip_adder(6, 3),
                               carry_skip_adder(8, 4), carry_skip_adder(8, 2),
                               replicate_blocks(carry_skip_adder(4, 2), 3)};
  for (Network& net : nets) {
    decompose_to_simple(net);
    IncrementalSta sta(net);
    Network reference = net;
    const auto edit = [&](const std::string& ctx, const auto& surgery) {
      const Snapshot before = snapshot(net);
      TransformTrace trace;
      {
        const TraceScope tracing(net, trace);
        surgery();
      }
      expect_edit_covered(net, before, trace, ctx);
      sta.apply(trace);
      expect_tables_exact(net, sta, ctx);
    };
    std::size_t transforms = 0;
    for (;;) {
      PathEnumerator en(net);
      const std::optional<Path> path = en.next();
      if (!path || Sensitizer(net, SensitizationMode::kStatic)
                           .check(*path)
                           .verdict != sat::Result::kUnsat)
        break;
      const std::string ctx =
          net.name() + " transform " + std::to_string(transforms++);
      edit(ctx, [&] { kms_replay_loop_transform(net); });
      ASSERT_TRUE(reference_loop_transform(reference)) << ctx;
      ASSERT_EQ(write_blif_string(net), write_blif_string(reference)) << ctx;
    }
    std::size_t removals = 0;
    for (bool removed = true; removed;) {
      removed = false;
      Atpg atpg(net);
      for (const Fault& f : collapsed_faults(net)) {
        if (atpg.generate_test(f).outcome != TestOutcome::kUntestable)
          continue;
        edit(net.name() + " removal " + std::to_string(removals++), [&] {
          apply_redundancy_removal(net, f);
          simplify(net);
        });
        removed = true;
        break;
      }
    }
    EXPECT_GT(transforms, 0u) << net.name();
    EXPECT_GT(removals, 0u) << net.name();
  }
}

TEST(IncrementalStaTest, SeededPathEnumerationIsIdentical) {
  Network net = carry_skip_adder(8, 2);
  decompose_to_simple(net);
  IncrementalSta sta(net);
  PathEnumerator plain(net);
  PathEnumerator seeded(net, sta.suffix());
  for (int i = 0; i < 50; ++i) {
    auto a = plain.next();
    auto b = seeded.next();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) break;
    EXPECT_EQ(a->length, b->length);
    EXPECT_EQ(a->source, b->source);
    ASSERT_EQ(a->gates.size(), b->gates.size());
    for (std::size_t k = 0; k < a->gates.size(); ++k) {
      EXPECT_EQ(a->gates[k], b->gates[k]);
      EXPECT_EQ(a->conns[k], b->conns[k]);
    }
  }
}

TEST(IncrementalStaTest, SeededComputedDelayIsIdentical) {
  Network net = carry_skip_adder(6, 3);
  decompose_to_simple(net);
  IncrementalSta sta(net);
  const StaSeed seed{&sta.arrival(), &sta.suffix()};
  for (SensitizationMode mode :
       {SensitizationMode::kStatic, SensitizationMode::kViability}) {
    const DelayReport plain = computed_delay(net, mode);
    const DelayReport seeded = computed_delay(net, mode, 200000, nullptr,
                                              &seed);
    EXPECT_EQ(plain.delay, seeded.delay);
    EXPECT_EQ(plain.paths_examined, seeded.paths_examined);
  }
}

/// One full KMS run; returns (output blif, journal text, stats).
struct RunOutcome {
  std::string blif;
  std::string journal;
  KmsStats stats;
};

/// With `audit` (the run's invariant checkpoints, as --check sets them),
/// every repair is checked against a from-scratch recompute (rules
/// NL024–NL028) and any divergence throws.
RunOutcome run_kms(Network net, bool audit, unsigned jobs) {
  proof::ProofSession session;
  session.journal.set_model(net.name());
  session.journal.set_input_digest(
      proof::digest_bytes(write_blif_string(net)));
  KmsOptions opts;
  opts.context.check_invariants = audit;
  opts.context.session = &session;
  opts.context.jobs = jobs;
  RunOutcome out;
  out.stats = kms_make_irredundant(net, opts);
  out.blif = write_blif_string(net);
  session.journal.set_output_digest(proof::digest_bytes(out.blif));
  out.journal = session.journal.to_text();
  return out;
}

TEST(IncrementalStaTest, KmsAuditTimingModePasses) {
  // --check cross-checks the maintained tables against a full
  // recompute at every synced checkpoint, throwing on any divergence;
  // auditing changes nothing about the run, at jobs 1 or 4.
  for (Network seed_net :
       {carry_skip_adder(4, 2), carry_skip_adder(6, 3),
        load_example("fulladder.blif"), load_example("parity4.blif"),
        load_example("counter2.blif"), load_example("statred.blif")}) {
    decompose_to_simple(seed_net);
    const RunOutcome ref = run_kms(seed_net, /*audit=*/false, 1);
    for (unsigned jobs : {1u, 4u}) {
      RunOutcome audited;
      ASSERT_NO_THROW(audited = run_kms(seed_net, /*audit=*/true, jobs))
          << seed_net.name() << " jobs " << jobs;
      EXPECT_EQ(audited.blif, ref.blif) << seed_net.name() << " jobs " << jobs;
      EXPECT_EQ(audited.journal, ref.journal)
          << seed_net.name() << " jobs " << jobs;
      EXPECT_EQ(audited.stats.final_computed_delay,
                ref.stats.final_computed_delay);
      if (audited.stats.iterations > 0) {
        EXPECT_GT(audited.stats.sta_applies, 0u);
      }
    }
  }
}

TEST(IncrementalStaTest, SuiteCircuitEndStateMatches) {
  // One Table-I substitute circuit (a removal-only run: the loop exits
  // on its first path), the tables audited after the removal phase's
  // rebuild, end state identical at jobs 1 and 4.
  Network net = build_suite_circuit(benchmark_suite().front());
  decompose_to_simple(net);
  RunOutcome one, four;
  ASSERT_NO_THROW(one = run_kms(net, /*audit=*/true, 1));
  ASSERT_NO_THROW(four = run_kms(net, /*audit=*/true, 4));
  EXPECT_EQ(four.blif, one.blif);
  EXPECT_EQ(four.journal, one.journal);
}

// ---------------------------------------------------------------------
// TimingChecker rules: each one must actually fire on a tampered input.

bool has_rule(const Diagnostics& d, const std::string& rule) {
  for (const Diagnostic& diag : d.all())
    if (diag.rule == rule) return true;
  return false;
}

/// a --not--> g -> f, plus b feeding a second output.
Network small_net() {
  Network net("t");
  const GateId a = net.add_input("a", 1.0);
  const GateId b = net.add_input("b");
  const GateId g = net.add_gate(GateKind::kAnd, {a, b}, 2.0);
  net.add_output("f", g);
  return net;
}

TEST(TimingCheckerTest, CleanNetworkHasNoFindings) {
  const Network net = small_net();
  Diagnostics out;
  run_timing_rules(net, &out);
  EXPECT_TRUE(out.empty()) << out.to_text();
  const TimingAudit audit = audit_timing_tables(net, compute_timing(net));
  EXPECT_TRUE(audit.ok()) << audit.diagnostics.to_text();
}

TEST(TimingCheckerTest, Nl022FlagsBadDeclaredDelays) {
  {
    Network net = small_net();
    net.gate(net.topo_order().back()).delay = -1.0;
    Diagnostics out;
    run_timing_rules(net, &out);
    EXPECT_GT(out.error_count(), 0u);
    EXPECT_TRUE(has_rule(out, "NL022")) << out.to_text();
  }
  {
    Network net = small_net();
    const GateId g = live_logic_gates(net).front();
    net.conn(net.gate(g).fanins[0]).delay =
        std::numeric_limits<double>::quiet_NaN();
    Diagnostics out;
    run_timing_rules(net, &out);
    EXPECT_TRUE(has_rule(out, "NL022")) << out.to_text();
  }
  {
    Network net = small_net();
    net.gate(net.inputs().front()).arrival =
        std::numeric_limits<double>::infinity();
    Diagnostics out;
    run_timing_rules(net, &out);
    EXPECT_TRUE(has_rule(out, "NL022")) << out.to_text();
  }
  // NL022 is error severity: it must fire even with warnings off.
  {
    Network net = small_net();
    net.gate(net.topo_order().back()).delay = -1.0;
    Diagnostics out;
    run_timing_rules(net, &out, 100, /*warnings=*/false);
    EXPECT_TRUE(has_rule(out, "NL022"));
  }
}

TEST(TimingCheckerTest, CappedReportIsTruncatedOnlyWhenAFindingIsDropped) {
  // Five gates with a negative delay: five NL022 findings. At a cap of
  // five the report is whole; at four one finding is dropped and the
  // report must say so.
  Network net("neg");
  const GateId a = net.add_input("a");
  for (int k = 0; k < 5; ++k)
    net.add_output("f" + std::to_string(k),
                   net.add_gate(GateKind::kNot, {a}, 1.0));
  for (GateId g : live_logic_gates(net)) net.gate(g).delay = -1.0;
  Diagnostics exact;
  run_timing_rules(net, &exact, 5);
  EXPECT_EQ(exact.all().size(), 5u) << exact.to_text();
  EXPECT_FALSE(exact.truncated());

  Diagnostics over;
  run_timing_rules(net, &over, 4);
  EXPECT_EQ(over.all().size(), 4u);
  EXPECT_TRUE(over.truncated());
}

TEST(TimingCheckerTest, Nl023FlagsStaleUnreachableCone) {
  Network net("stale");
  const GateId a = net.add_input("a", 5.0);
  net.add_gate(GateKind::kNot, {a}, 1.0);  // reaches no output
  const GateId b = net.add_input("b", 1.0);
  net.add_output("f", b);  // network delay bound = 1
  Diagnostics out;
  run_timing_rules(net, &out);
  EXPECT_TRUE(has_rule(out, "NL023")) << out.to_text();
  EXPECT_EQ(out.error_count(), 0u);  // warning severity
  // --no-warn drops it.
  Diagnostics quiet;
  run_timing_rules(net, &quiet, 100, /*warnings=*/false);
  EXPECT_FALSE(has_rule(quiet, "NL023"));
}

TEST(TimingCheckerTest, Nl024FlagsNonMonotonicArrival) {
  const Network net = small_net();
  TimingTables t = compute_timing(net);
  t.arrival[live_logic_gates(net).front().value()] -= 0.5;
  const TimingAudit audit = audit_timing_tables(net, t);
  EXPECT_FALSE(audit.ok());
  EXPECT_TRUE(has_rule(audit.diagnostics, "NL024"))
      << audit.diagnostics.to_text();
}

TEST(TimingCheckerTest, Nl025FlagsNegativeSlack) {
  const Network net = small_net();
  TimingTables t = compute_timing(net);
  t.slack[live_logic_gates(net).front().value()] = -1.0;
  const TimingAudit audit = audit_timing_tables(net, t);
  EXPECT_TRUE(has_rule(audit.diagnostics, "NL025"))
      << audit.diagnostics.to_text();
}

TEST(TimingCheckerTest, Nl026FlagsOutputPastDelayBound) {
  const Network net = small_net();
  TimingTables t = compute_timing(net);
  t.arrival[net.outputs().front().value()] = t.delay + 1.0;
  const TimingAudit audit = audit_timing_tables(net, t);
  EXPECT_TRUE(has_rule(audit.diagnostics, "NL026"))
      << audit.diagnostics.to_text();
}

TEST(TimingCheckerTest, Nl027FlagsBogusMinusInfArrival) {
  const Network net = small_net();
  TimingTables t = compute_timing(net);
  t.arrival[live_logic_gates(net).front().value()] = minus_infinity();
  const TimingAudit audit = audit_timing_tables(net, t);
  EXPECT_TRUE(has_rule(audit.diagnostics, "NL027"))
      << audit.diagnostics.to_text();
}

TEST(TimingCheckerTest, Nl028FlagsUntracedEdit) {
  // Edit the network behind the engine's back: the exact divergence
  // audit must catch the stale tables, and the enforcement wrapper must
  // throw.
  Network net = small_net();
  IncrementalSta sta(net);
  net.gate(live_logic_gates(net).front()).delay += 1.0;
  const TimingAudit audit = audit_incremental_sta(net, sta);
  EXPECT_FALSE(audit.ok());
  EXPECT_TRUE(has_rule(audit.diagnostics, "NL028"))
      << audit.diagnostics.to_text();
  EXPECT_THROW(enforce_timing_invariants(net, sta, "test"), CheckFailure);
}

TEST(TimingCheckerTest, RulesAreRegistered) {
  for (const char* id :
       {"NL022", "NL023", "NL024", "NL025", "NL026", "NL027", "NL028"}) {
    const RuleInfo* info = find_rule(id);
    ASSERT_NE(info, nullptr) << id;
  }
  EXPECT_EQ(find_rule("NL022")->severity, Severity::kError);
  EXPECT_EQ(find_rule("NL023")->severity, Severity::kWarning);
}

TEST(IncrementalStaTest, DelayFromArrivalMatchesTopologicalDelay) {
  for (Network net : {carry_skip_adder(8, 2), load_example("parity4.blif")}) {
    decompose_to_simple(net);
    EXPECT_EQ(delay_from_arrival(net, compute_arrival(net)),
              topological_delay(net));
  }
}

}  // namespace
}  // namespace kms

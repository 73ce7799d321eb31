// Soundness suite for the SAT-free untestability verdicts behind lint
// rules NL017-NL021 and `kmscli analyze`:
//
//  * property: every static untestability verdict is confirmed by the
//    exact SAT engine on the example corpus, random circuits and the
//    statically-redundant generator — the rules must never be wrong;
//  * the verdicts are a deterministic function of the network;
//  * removal does not use them: a certified run on circuits whose
//    redundancies the rules catch proves every deletion with SAT and a
//    DRAT certificate, and an aborted run journals only the verdicts
//    of removals it committed.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/analysis/static_untestable.hpp"
#include "src/atpg/atpg.hpp"
#include "src/atpg/fault.hpp"
#include "src/atpg/redundancy.hpp"
#include "src/base/governor.hpp"
#include "src/core/kms.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/journal.hpp"
#include "src/proof/verify.hpp"

namespace kms {
namespace {

namespace fs = std::filesystem;

using analysis::StaticUntestable;
using analysis::StaticVerdict;
using proof::JournalStep;
using proof::ProofSession;

/// n blocks of y_i = a_i AND (a_i AND b_i): 2n statically provable
/// (blocked) branch redundancies, nothing else.
Network statred_blocks(std::size_t blocks) {
  std::string blif = ".model statred\n.inputs";
  for (std::size_t i = 0; i < blocks; ++i)
    blif += " a" + std::to_string(i) + " b" + std::to_string(i);
  blif += "\n.outputs";
  for (std::size_t i = 0; i < blocks; ++i) blif += " y" + std::to_string(i);
  blif += "\n";
  for (std::size_t i = 0; i < blocks; ++i) {
    const std::string n = std::to_string(i);
    blif += ".names a" + n + " b" + n + " x" + n + "\n11 1\n";
    blif += ".names a" + n + " x" + n + " y" + n + "\n11 1\n";
  }
  blif += ".end\n";
  Network net = read_blif_string(blif);
  decompose_to_simple(net);
  return net;
}

/// statred blocks plus one consensus cone (f = ab + a'c + bc): mixes
/// statically provable redundancies with one only SAT can prove.
Network mixed_redundancies() {
  Network net = read_blif_string(
      ".model mixed\n"
      ".inputs a b c p q\n"
      ".outputs f y\n"
      ".names a b x\n11 1\n"
      ".names a c u\n01 1\n"
      ".names b c z\n11 1\n"
      ".names x u z f\n1-- 1\n-1- 1\n--1 1\n"
      ".names p q w\n11 1\n"
      ".names p w y\n11 1\n"
      ".end\n");
  decompose_to_simple(net);
  return net;
}

/// The core soundness check: every static verdict on `net` must agree
/// with the exact SAT engine. Returns the number of faults the rules
/// prove untestable.
std::size_t check_soundness(const Network& net, const std::string& label) {
  const StaticUntestable engine(net);
  Atpg exact(net);  // no governor: verdicts are exact
  std::size_t hits = 0;
  for (const Fault& f : collapsed_faults(net)) {
    const StaticVerdict v = engine.analyze(f);
    if (v == StaticVerdict::kUnknown) continue;
    ++hits;
    EXPECT_EQ(exact.generate_test(f).outcome, TestOutcome::kUntestable)
        << label << ": static engine wrongly called "
        << format_fault(net, f) << " untestable ("
        << analysis::static_verdict_name(v) << ")";
  }
  return hits;
}

TEST(StaticUntestableTest, VerdictsMatchExactSatOnExampleCorpus) {
  std::size_t total = 0;
  for (const auto& entry : fs::directory_iterator(EXAMPLES_DIR)) {
    if (entry.path().extension() != ".blif") continue;
    std::ifstream in(entry.path());
    BlifSequential model = read_blif_sequential(in);
    decompose_to_simple(model.comb);
    total += check_soundness(model.comb, entry.path().filename().string());
  }
  // The rules prove at least one untestable fault SAT-free on the
  // shipped example corpus.
  EXPECT_GE(total, 1u);
}

TEST(StaticUntestableTest, VerdictsMatchExactSatOnGeneratedCircuits) {
  std::size_t total = 0;
  total += check_soundness(statred_blocks(4), "statred_4");
  total += check_soundness(mixed_redundancies(), "mixed");
  {
    Network csa = carry_skip_adder(4, 2);
    decompose_to_simple(csa);
    total += check_soundness(csa, "csa_4_2");
  }
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = seed;
    opts.gates = 40;
    Network net = random_network(opts);
    decompose_to_simple(net);
    total += check_soundness(net, "random_" + std::to_string(seed));
  }
  EXPECT_GE(total, 8u);  // each statred block contributes two
}

TEST(StaticUntestableTest, AnalysisIsDeterministic) {
  const Network net = mixed_redundancies();
  const StaticUntestable a(net), b(net);
  for (const Fault& f : collapsed_faults(net))
    EXPECT_EQ(a.analyze(f), b.analyze(f));
}

std::size_t count_steps(const ProofSession& session, JournalStep::Kind kind) {
  std::size_t n = 0;
  for (const JournalStep& s : session.journal.steps())
    if (s.kind == kind) ++n;
  return n;
}

TEST(StaticUntestableTest, InterruptedRunRecordsNoStaticVerdicts) {
  // The static rules hold verdicts for every redundancy here...
  Network net = statred_blocks(4);
  EXPECT_GT(check_soundness(net, "statred_4"), 0u);
  // ...yet removal never takes one from them, and a run interrupted
  // before any commit journals no verdict at all.
  ResourceGovernor gov;
  gov.request_interrupt();
  ProofSession session;
  session.journal.set_model(net.name());
  RedundancyRemovalOptions opts;
  opts.context.governor = &gov;
  opts.context.session = &session;
  const auto r = remove_redundancies(net, opts);
  EXPECT_EQ(r.removed, 0u);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(count_steps(session, JournalStep::Kind::kFaultUntestable), 0u);
  EXPECT_EQ(count_steps(session, JournalStep::Kind::kDelete), 0u);
  EXPECT_TRUE(session.certificates().empty());
}

TEST(StaticUntestableTest, AbortedRunsNeverJournalVacuousStaticClaims) {
  // Across a sweep of mid-run cancellation schedules on a circuit that
  // mixes statically provable redundancies with one only SAT proves:
  // however far the loop got, (a) untestable-fault steps come in
  // matched pairs with their deletions, one per removal actually
  // applied, (b) each cites a registered DRAT certificate, and (c) the
  // session verifies.
  for (std::uint64_t cancel_after = 0; cancel_after < 6; ++cancel_after) {
    Network net = mixed_redundancies();
    const std::string input = write_blif_string(net);
    ResourceGovernor gov;
    gov.set_injector(FaultInjector::random(/*seed=*/cancel_after + 1,
                                           /*abort_probability=*/0.3,
                                           cancel_after));
    ProofSession session;
    session.journal.set_model(net.name());
    session.journal.set_input_digest(proof::digest_bytes(input));
    RedundancyRemovalOptions opts;
    opts.context.governor = &gov;
    opts.context.session = &session;
    const auto r = remove_redundancies(net, opts);
    const std::string output = write_blif_string(net);
    session.journal.set_output_digest(proof::digest_bytes(output));

    const std::size_t claims =
        count_steps(session, JournalStep::Kind::kFaultUntestable);
    EXPECT_EQ(claims, r.removed)
        << "untestable verdict journalled without its committed deletion";
    EXPECT_EQ(count_steps(session, JournalStep::Kind::kDelete), r.removed);
    EXPECT_EQ(session.certificates().size(), claims);
    const proof::VerifyReport rep =
        proof::verify_session(session, input, output);
    EXPECT_TRUE(rep.ok) << "cancel_after=" << cancel_after << ": "
                        << rep.error;
    EXPECT_EQ(rep.deletions_verified, r.removed);
  }
}

TEST(StaticUntestableTest, StatredCertifiedRunProvesEveryRemovalWithSat) {
  // Every redundancy of statred_blocks is one the static rules prove,
  // yet removal proves each with SAT: one fault-untestable + delete
  // pair per block, each citing its own DRAT certificate, and the
  // session verifies and survives a text round trip of its journal.
  Network net = statred_blocks(8);
  ASSERT_GE(check_soundness(net, "statred_8"), 8u);
  ProofSession session;
  const std::string input = write_blif_string(net);
  session.journal.set_model(net.name());
  session.journal.set_input_digest(proof::digest_bytes(input));
  KmsOptions opts;
  opts.context.session = &session;
  const KmsStats stats = kms_make_irredundant(net, opts);
  const std::string output = write_blif_string(net);
  session.journal.set_output_digest(proof::digest_bytes(output));

  EXPECT_EQ(stats.removal.removed, 8u);
  EXPECT_EQ(count_steps(session, JournalStep::Kind::kFaultUntestable), 8u);
  EXPECT_EQ(count_steps(session, JournalStep::Kind::kDelete), 8u);
  EXPECT_EQ(session.certificates().size(), 8u);
  const proof::VerifyReport rep =
      proof::verify_session(session, input, output);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_FALSE(rep.partial);
  EXPECT_EQ(rep.certificates_checked, 8u);
  EXPECT_EQ(rep.deletions_verified, 8u);

  std::istringstream in(session.journal.to_text());
  const proof::TransformJournal back = proof::TransformJournal::read(in);
  EXPECT_EQ(back.to_text(), session.journal.to_text());
}

}  // namespace
}  // namespace kms

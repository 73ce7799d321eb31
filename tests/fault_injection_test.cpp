// Fault-injection harness: prove that graceful degradation is *safe*.
// Under any schedule of forced solver aborts and mid-loop cancellation,
// (a) an aborted ATPG query is never treated as a redundancy proof, so
// nothing is ever deleted on an unproved premise, and (b) the output of
// kms_make_irredundant stays functionally equivalent to its input with
// the invariant checker clean.
#include <cstdio>

#include <gtest/gtest.h>

#include <sstream>

#include "src/atpg/atpg.hpp"
#include "src/atpg/fault.hpp"
#include "src/atpg/redundancy.hpp"
#include "src/base/governor.hpp"
#include "src/check/checker.hpp"
#include "src/cnf/encoder.hpp"
#include "src/core/kms.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/journal.hpp"
#include "src/proof/verify.hpp"
#include "src/sim/simulator.hpp"

namespace kms {
namespace {

/// Equivalence oracle: exhaustive when feasible, SAT otherwise (the SAT
/// check runs ungoverned, so it is exact even in degraded scenarios).
bool equivalent(const Network& a, const Network& b) {
  if (a.inputs().size() <= 14) return exhaustive_equiv(a, b).equivalent;
  return sat_equivalent(a, b);
}

TEST(FaultInjectionTest, ForcedAbortIsNeverARedundancyProof) {
  Network net = carry_skip_adder(2, 2);
  decompose_to_simple(net);
  const auto faults = collapsed_faults(net);

  // Exact classification first, as ground truth.
  Atpg exact(net);
  std::vector<TestOutcome> truth;
  truth.reserve(faults.size());
  for (const Fault& f : faults) truth.push_back(exact.generate_test(f).outcome);

  // Every SAT query aborts. Any kUntestable still reported must have
  // been proved structurally (no solver involved) and must agree with
  // the ground truth; every fault that is really testable degrades to
  // kUnknown, never to a spurious verdict.
  ResourceGovernor gov;
  gov.set_injector(FaultInjector::random(/*seed=*/1, /*abort_probability=*/1.0));
  Atpg injected(net, &gov);
  std::size_t unknowns = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const TestResult r = injected.generate_test(faults[i]);
    if (r.outcome == TestOutcome::kUntestable)
      EXPECT_EQ(truth[i], TestOutcome::kUntestable)
          << "injected abort produced a false redundancy claim";
    if (r.outcome == TestOutcome::kTestable)
      ADD_FAILURE() << "aborted query reported a test vector";
    EXPECT_FALSE(r.has_value());
    if (r.outcome == TestOutcome::kUnknown) ++unknowns;
  }
  EXPECT_GT(unknowns, 0u);
  EXPECT_EQ(injected.stats().unknown_queries, unknowns);
  EXPECT_EQ(injected.stats().testable, 0u);
}

TEST(FaultInjectionTest, ExhaustedGovernorRemovesNothing) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  ASSERT_GT(count_redundancies(net), 0u);  // there IS bait to delete
  const Network before = net;

  ResourceGovernor gov;
  gov.set_conflict_limit(0);
  RedundancyRemovalOptions opts;
  opts.context.governor = &gov;
  const RedundancyRemovalResult r = remove_redundancies(net, opts);
  EXPECT_EQ(r.removed, 0u);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(net.count_gates(), before.count_gates());
  EXPECT_TRUE(equivalent(before, net));
}

TEST(FaultInjectionTest, MidLoopCancellationLeavesEquivalentNetwork) {
  // Simulate a SIGINT landing a few queries into the KMS loop: the
  // injector schedules a governor-wide interrupt after 5 solves.
  Network net = carry_skip_adder(6, 3);
  decompose_to_simple(net);
  const Network original = net;
  ResourceGovernor gov;
  gov.set_injector(
      FaultInjector::random(/*seed=*/3, /*abort_probability=*/0.0,
                            /*cancel_after_queries=*/5));
  KmsOptions opts;
  opts.context.governor = &gov;
  const KmsStats stats = kms_make_irredundant(net, opts);
  EXPECT_TRUE(stats.interrupted);
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(NetworkChecker().run(net).error_count(), 0u);
  EXPECT_TRUE(equivalent(original, net));
}

// The acceptance property: across 60 seeded injection schedules —
// mixing abort probabilities from 0 to 0.9, scheduled mid-run
// cancellations, and four circuit families — kms_make_irredundant
// always yields a checker-clean network equivalent to its input. One
// ctest case per schedule: each stays tiny even under ASan plus the
// per-operation invariant self-checks, and a failing schedule is named
// directly in the ctest output.
class FaultInjectionScheduleTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultInjectionScheduleTest, PreservesEquivalence) {
  const std::uint64_t seed = GetParam();
  Network net;
  switch (seed % 4) {
    case 0:
      net = carry_skip_adder(2 + seed % 3, 2);
      break;
    case 1:
      net = carry_skip_adder(4, 1 + seed % 3);
      break;
    case 2: {
      RandomNetworkOptions ropts;
      ropts.inputs = 6;
      ropts.outputs = 3;
      ropts.gates = 30;
      ropts.seed = 1000 + seed;
      net = random_network(ropts);
      break;
    }
    default:
      net = comparator(3 + seed % 3);
      break;
  }
  decompose_to_simple(net);
  const Network original = net;

  ResourceGovernor gov;
  const double probability = static_cast<double>(seed % 10) * 0.1;
  const std::uint64_t cancel_after =
      (seed % 3 == 0) ? 1 + seed % 11 : 0;  // a third also get "SIGINT"
  gov.set_injector(FaultInjector::random(seed, probability, cancel_after));

  KmsOptions opts;
  opts.context.governor = &gov;
  // The property under test is equivalence under degradation, not
  // optimization depth: cap the loop's transform count so uninjected
  // schedules on the random-network family (whose duplication phase can
  // balloon) stay cheap under ASan. The cap is itself a graceful-exit
  // path, so every schedule still ends in the final removal phase.
  opts.max_iterations = 50;
  const KmsStats stats = kms_make_irredundant(net, opts);

  SCOPED_TRACE(::testing::Message()
               << "schedule seed=" << seed << " p=" << probability
               << " cancel_after=" << cancel_after
               << " unknown=" << stats.unknown_queries);
  EXPECT_EQ(NetworkChecker().run(net).error_count(), 0u);
  EXPECT_TRUE(equivalent(original, net));
  if (cancel_after > 0 && gov.report().queries >= cancel_after)
    EXPECT_TRUE(stats.interrupted);
}

INSTANTIATE_TEST_SUITE_P(Schedules, FaultInjectionScheduleTest,
                         ::testing::Range<std::uint64_t>(0, 60));

TEST(FaultInjectionTest, InjectedAbortNeverEmitsVacuousUnsatProof) {
  // With every solve forced to abort, no ATPG query may conclude UNSAT —
  // so no verdict carries a certificate, and a proof session collected
  // over a removal run must contain no untestable-fault steps and no
  // certificates, only unknown verdicts, and must finalize as partial.
  // A vacuous UNSAT certificate slipping through here would let an
  // aborted run "prove" a deletion.
  Network net = carry_skip_adder(2, 2);
  decompose_to_simple(net);
  const auto faults = collapsed_faults(net);

  ResourceGovernor gov;
  gov.set_injector(FaultInjector::random(/*seed=*/7, /*abort_probability=*/1.0));
  Atpg atpg(net, &gov);
  atpg.set_proof_capture(true);
  for (const Fault& f : faults) {
    const TestResult r = atpg.generate_test(f);
    EXPECT_NE(r.outcome, TestOutcome::kUntestable)
        << "aborted solve concluded untestable";
    EXPECT_EQ(r.certificate, nullptr) << "aborted solve carries a certificate";
  }

  // The same schedule through the removal engine, which journals the
  // lanes' captured verdicts.
  ResourceGovernor run_gov;
  run_gov.set_injector(
      FaultInjector::random(/*seed=*/7, /*abort_probability=*/1.0));
  proof::ProofSession session;
  RedundancyRemovalOptions opts;
  opts.context.governor = &run_gov;
  opts.context.session = &session;
  const RedundancyRemovalResult r = remove_redundancies(net, opts);
  EXPECT_EQ(r.removed, 0u);
  EXPECT_GT(r.atpg.unknown_queries, 0u);
  EXPECT_TRUE(session.certificates().empty());
  EXPECT_TRUE(session.journal.partial());
  ASSERT_FALSE(session.journal.steps().empty());
  for (const proof::JournalStep& s : session.journal.steps())
    EXPECT_EQ(s.kind, proof::JournalStep::Kind::kFaultUnknown);
}

/// Records the network and the governor's propagation count at the
/// first committed removal pass.
class FirstCommitProbe : public recover::CommitSink {
 public:
  explicit FirstCommitProbe(const ResourceGovernor& gov) : gov_(gov) {}
  void commit(const recover::CommitPoint& point) override {
    if (seen_) return;
    seen_ = true;
    propagations_ = gov_.report().propagations;
    blif_ = write_blif_string(*point.net);
  }
  void checkpoint(const recover::CommitPoint&) override {}
  bool seen() const { return seen_; }
  std::uint64_t propagations() const { return propagations_; }
  const std::string& blif() const { return blif_; }

 private:
  const ResourceGovernor& gov_;
  bool seen_ = false;
  std::uint64_t propagations_ = 0;
  std::string blif_;
};

TEST(FaultInjectionTest, GovernorTripRightAfterUntestableProofStillRemoves) {
  // A one-lane removal whose governor trips the moment the first pass's
  // untestable solve returns must still commit that proved fault, then
  // stop: the first pass's removal lands, nothing after it does. The
  // trip is a propagation budget equal to the work done up to the end
  // of that solve, measured by an unlimited run of the same removal
  // (the budget is charged at the end of each solve, so no poll inside
  // it sees the limit).
  Network original = carry_skip_adder(4, 2);
  decompose_to_simple(original);
  const std::string input_blif = write_blif_string(original);
  const auto run = [&](ResourceGovernor& gov, Network& net,
                       recover::CommitSink* sink,
                       proof::ProofSession& session) {
    session.journal.set_model(net.name());
    session.journal.set_input_digest(proof::digest_bytes(input_blif));
    RedundancyRemovalOptions opts;
    opts.context.governor = &gov;
    opts.context.session = &session;
    opts.context.sink = sink;
    return remove_redundancies(net, opts);
  };

  ResourceGovernor unlimited;
  FirstCommitProbe probe(unlimited);
  Network reference = original.clone_compact();
  proof::ProofSession reference_session;
  const RedundancyRemovalResult full =
      run(unlimited, reference, &probe, reference_session);
  ASSERT_TRUE(probe.seen());
  ASSERT_GT(full.removed, 1u);
  ASSERT_GT(probe.propagations(), 0u);

  ResourceGovernor gov;
  gov.set_propagation_limit(static_cast<std::int64_t>(probe.propagations()));
  Network net = original.clone_compact();
  proof::ProofSession session;
  const RedundancyRemovalResult r = run(gov, net, nullptr, session);
  EXPECT_TRUE(gov.report().budget_exhausted);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(r.atpg.unknown_queries, 0u);
  EXPECT_EQ(r.removed, 1u);
  const std::string output_blif = write_blif_string(net);
  EXPECT_EQ(output_blif, probe.blif());
  EXPECT_TRUE(equivalent(original, net));
  EXPECT_EQ(NetworkChecker().run(net).error_count(), 0u);

  session.journal.set_output_digest(proof::digest_bytes(output_blif));
  const proof::VerifyReport rep =
      proof::verify_session(session, input_blif, output_blif);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(rep.partial);
  EXPECT_EQ(rep.deletions_verified, 1u);
}

TEST(FaultInjectionTest, DegradedRunYieldsPartialJournalThatStillVerifies) {
  // A mid-run cancellation must mark the journal partial, and the steps
  // the run *did* prove must still verify end to end.
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  proof::ProofSession session;
  session.journal.set_model(net.name());
  const std::string input_blif = write_blif_string(net);
  session.journal.set_input_digest(proof::digest_bytes(input_blif));

  ResourceGovernor gov;
  gov.set_injector(
      FaultInjector::random(/*seed=*/11, /*abort_probability=*/0.5,
                            /*cancel_after_queries=*/8));
  KmsOptions opts;
  opts.context.governor = &gov;
  opts.context.session = &session;
  const KmsStats stats = kms_make_irredundant(net, opts);
  ASSERT_TRUE(stats.degraded);

  const std::string output_blif = write_blif_string(net);
  session.journal.set_output_digest(proof::digest_bytes(output_blif));
  EXPECT_TRUE(session.journal.partial());

  const proof::VerifyReport rep =
      proof::verify_session(session, input_blif, output_blif);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(rep.partial);

  // And the partial marker round-trips: a journal that claims "end
  // complete" over these degraded steps is rejected at parse time.
  std::string text = session.journal.to_text();
  const auto pos = text.rfind("end partial");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 11, "end complete");
  std::istringstream forged(text);
  EXPECT_THROW(proof::TransformJournal::read(forged), std::runtime_error);
}

TEST(FaultInjectionTest, DeletionWithoutProofIdIsRejected) {
  // A journal step claiming a deletion with no proof id (proof=-1, as an
  // aborted query would leave it) must be refused by the verifier even
  // when everything else about the session is pristine.
  Network net("noop");
  const GateId a = net.add_input("a");
  net.add_output("f", net.add_gate(GateKind::kBuf, {a}));
  const std::string blif = write_blif_string(net);

  proof::ProofSession session;
  session.journal.set_model(net.name());
  session.journal.set_input_digest(proof::digest_bytes(blif));
  session.journal.set_output_digest(proof::digest_bytes(blif));
  session.journal.add_delete("g(and)/SA0", /*proof=*/-1);

  const proof::VerifyReport rep = proof::verify_session(session, blif, blif);
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("without a matching proven"), std::string::npos)
      << rep.error;

  // The same forgery must survive a text round-trip and still be
  // rejected: "step delete" with no proof= field parses to proof=-1.
  std::istringstream in(session.journal.to_text());
  const proof::TransformJournal parsed = proof::TransformJournal::read(in);
  ASSERT_EQ(parsed.steps().size(), 1u);
  EXPECT_EQ(parsed.steps()[0].proof, -1);
}

TEST(FaultInjectionTest, UninjectedGovernorMatchesUngovernedResult) {
  // Sanity: a governor with no limits must not change the algorithm.
  Network governed = carry_skip_adder(4, 2);
  decompose_to_simple(governed);
  Network plain = governed;

  ResourceGovernor gov;
  KmsOptions gopts;
  gopts.context.governor = &gov;
  const KmsStats gs = kms_make_irredundant(governed, gopts);
  const KmsStats ps = kms_make_irredundant(plain, KmsOptions{});

  EXPECT_FALSE(gs.degraded);
  EXPECT_EQ(gs.final_gates, ps.final_gates);
  EXPECT_EQ(gs.removal.removed, ps.removal.removed);
  EXPECT_EQ(gs.iterations, ps.iterations);
  EXPECT_TRUE(equivalent(governed, plain));
}

}  // namespace
}  // namespace kms

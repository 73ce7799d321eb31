// Removal engine tests: SAT/simulation cross-checks, equivalence with
// the reference removal scan (tests/reference_removal.hpp), cache
// behaviour, governed fault simulation, the solver-call accounting
// fix, and an Atpg reused across queries against a fresh one per fault.
#include <algorithm>
#include <filesystem>
#include <map>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "src/analysis/static_untestable.hpp"
#include "src/atpg/atpg.hpp"
#include "src/atpg/fault_sim.hpp"
#include "src/atpg/redundancy.hpp"
#include "src/base/governor.hpp"
#include "src/base/rng.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/gen/suite.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/drat.hpp"
#include "src/proof/journal.hpp"
#include "src/proof/verify.hpp"
#include "src/serve/runner.hpp"
#include "src/sim/simulator.hpp"
#include "tests/reference_removal.hpp"
#include "tests/temp_path.hpp"
#include "tests/test_networks.hpp"

namespace kms {
namespace {

namespace fs = std::filesystem;

std::vector<Network> test_circuits() {
  std::vector<Network> nets;
  nets.push_back(carry_skip_adder(4, 2));
  nets.push_back(carry_skip_adder(8, 2));
  nets.push_back(ripple_carry_adder(4));
  for (std::uint64_t seed = 90; seed < 94; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = seed;
    opts.gates = 30;
    nets.push_back(random_network(opts));
  }
  for (Network& n : nets) decompose_to_simple(n);
  return nets;
}

std::vector<Network> example_circuits() {
  std::vector<Network> nets;
  for (const auto& entry : fs::directory_iterator(EXAMPLES_DIR)) {
    if (entry.path().extension() != ".blif") continue;
    std::ifstream in(entry.path());
    BlifSequential model = read_blif_sequential(in);
    decompose_to_simple(model.comb);
    nets.push_back(std::move(model.comb));
  }
  EXPECT_FALSE(nets.empty());
  return nets;
}

// Every SAT-testable fault's witness must be detected by the fault
// simulator — the exact cross-check the witness-dropping optimization
// rests on (a sim detection and a SAT model must agree on what
// "testable" means, cone encoding included).
TEST(AtpgIncrementalTest, SatWitnessIsDetectedBySimulator) {
  for (const Network& net : test_circuits()) {
    const auto faults = collapsed_faults(net);
    FaultSimulator sim(net);
    Atpg atpg(net);
    Rng rng(7);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const TestResult t = atpg.generate_test(faults[i]);
      if (t.outcome != TestOutcome::kTestable) continue;
      ASSERT_TRUE(t.vector.has_value());
      ASSERT_EQ(t.vector->size(), net.inputs().size());
      // Exact witness in every lane: the fault must be detected.
      std::vector<std::uint64_t> pi(net.inputs().size());
      for (std::size_t k = 0; k < pi.size(); ++k)
        pi[k] = (*t.vector)[k] ? ~0ull : 0ull;
      EXPECT_NE(sim.detect_words(faults, pi)[i], 0u)
          << "witness not detected for fault " << format_fault(net, faults[i]);
      // witness_words keeps the exact witness in pattern 0.
      const auto packed = witness_words(*t.vector, rng);
      EXPECT_NE(sim.detect_words(faults, packed)[i] & 1ull, 0u)
          << "witness_words lane 0 lost the witness for "
          << format_fault(net, faults[i]);
    }
  }
}

/// Which of `faults` `words` sets of 64 random patterns detect, with
/// fault dropping between words.
std::vector<bool> random_detections(FaultSimulator& sim, const Network& net,
                                    const std::vector<Fault>& faults,
                                    std::size_t words, Rng& rng) {
  std::vector<bool> detected(faults.size(), false);
  std::vector<std::uint64_t> pi(net.inputs().size());
  for (std::size_t w = 0; w < words; ++w) {
    for (auto& x : pi) x = rng.next_u64();
    sim.detect_new(faults, pi, detected);
  }
  return detected;
}

// ...and the other direction: every fault the random simulation detects
// must be SAT-testable. A sim detection of an untestable fault would
// mean the simulator and the encoder disagree on the fault semantics.
TEST(AtpgIncrementalTest, SimDetectedFaultIsSatTestable) {
  for (const Network& net : test_circuits()) {
    if (net.inputs().empty()) continue;
    const auto faults = collapsed_faults(net);
    FaultSimulator sim(net);
    Rng rng(11);
    const auto detected = random_detections(sim, net, faults, 4, rng);
    Atpg atpg(net);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (!detected[i]) continue;
      EXPECT_EQ(atpg.generate_test(faults[i]).outcome, TestOutcome::kTestable)
          << "sim-detected but not SAT-testable: "
          << format_fault(net, faults[i]);
    }
  }
}

/// The engine against the reference scan: the same faults removed, so
/// the same network bytes, with no more solver calls.
void expect_engines_agree(const Network& original) {
  Network ref_net = original.clone_compact();
  Network net = original.clone_compact();
  const ReferenceRemoval ref = reference_remove_redundancies(ref_net);
  const RedundancyRemovalResult r = remove_redundancies(net);
  EXPECT_EQ(ref.removed, r.removed);
  EXPECT_EQ(write_blif_string(ref_net), write_blif_string(net));
  EXPECT_LE(r.atpg.sat_solves, ref.sat_queries);
  EXPECT_EQ(ref_net.check(), "");
  EXPECT_EQ(net.check(), "");
  EXPECT_EQ(count_redundancies(net), 0u);
  if (original.inputs().size() <= 16) {
    EXPECT_TRUE(exhaustive_equiv(original, net).equivalent);
  } else {
    Rng rng(23);
    EXPECT_TRUE(random_equiv(original, net, rng).equivalent);
  }
}

TEST(AtpgIncrementalTest, EnginesAgreeOnGeneratedCircuits) {
  for (const Network& net : test_circuits()) expect_engines_agree(net);
}

TEST(AtpgIncrementalTest, EnginesAgreeOnExampleNetlists) {
  for (const Network& net : example_circuits()) expect_engines_agree(net);
}

TEST(AtpgIncrementalTest, IncrementalSavesQueriesOnCarrySkip) {
  Network net = carry_skip_adder(8, 2);
  decompose_to_simple(net);
  Network ref_net = net.clone_compact();
  Network inc_net = net.clone_compact();
  const ReferenceRemoval ref = reference_remove_redundancies(ref_net);
  const auto inc_r = remove_redundancies(inc_net);
  ASSERT_GT(inc_r.removed, 0u);
  EXPECT_EQ(ref.removed, inc_r.removed);
  EXPECT_EQ(write_blif_string(ref_net), write_blif_string(inc_net));
  // The carry-skip adder needs several passes; the cross-pass cache and
  // the random pre-drop must both fire and must strictly reduce the
  // exact ATPG load. (Every testable fault of a carry-skip adder falls
  // to the random words, so witness replay never fires here; smisex1's
  // WitnessDropsJournalledAndSessionVerifies covers it.)
  EXPECT_GT(inc_r.cache_hits, 0u);
  EXPECT_GT(inc_r.sim_dropped, 0u);
  EXPECT_LT(inc_r.atpg.sat_solves, ref.sat_queries);
}

TEST(AtpgIncrementalTest, StructuralShortcutAccounting) {
  // A gate that reaches no primary output: untestable without a solver.
  Network net("dangling");
  const GateId a = net.add_input("a");
  const GateId b = net.add_input("b");
  const GateId dangling = net.add_gate(GateKind::kAnd, {a, b}, 1.0);
  const GateId o = net.add_gate(GateKind::kOr, {a, b}, 1.0);
  net.add_output("f", o);
  const Fault f{Fault::Site::kStem, dangling, ConnId::invalid(), false};
  {
    Atpg atpg(net);
    EXPECT_EQ(atpg.generate_test(f).outcome, TestOutcome::kUntestable);
    EXPECT_EQ(atpg.stats().queries, 1u);
    EXPECT_EQ(atpg.stats().sat_solves, 0u);
    EXPECT_EQ(atpg.stats().structural_shortcuts, 1u);
  }
  {
    // Under proof capture the shortcut is bypassed so the verdict
    // carries a certificate; the accounting must say so.
    Atpg atpg(net);
    atpg.set_proof_capture(true);
    const TestResult t = atpg.generate_test(f);
    EXPECT_EQ(t.outcome, TestOutcome::kUntestable);
    EXPECT_NE(t.certificate, nullptr);
    EXPECT_EQ(atpg.stats().sat_solves, 1u);
    EXPECT_EQ(atpg.stats().structural_shortcuts, 0u);
  }
  {
    // A testable fault reaches the solver: queries always split into
    // sat_solves + structural_shortcuts.
    Atpg atpg(net);
    const Fault live{Fault::Site::kStem, o, ConnId::invalid(), false};
    EXPECT_EQ(atpg.generate_test(live).outcome, TestOutcome::kTestable);
    EXPECT_EQ(atpg.generate_test(f).outcome, TestOutcome::kUntestable);
    EXPECT_EQ(atpg.stats().queries,
              atpg.stats().sat_solves + atpg.stats().structural_shortcuts);
  }
}

TEST(AtpgIncrementalTest, RemovalResultCountsActualSolves) {
  // The removal result keeps one copy of the solver-call count, in its
  // aggregated AtpgStats: every query the lanes issued is either a
  // solve or a structural shortcut, and every removal needed a proof.
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  const auto r = remove_redundancies(net);
  ASSERT_GT(r.removed, 0u);
  EXPECT_GT(r.atpg.sat_solves, 0u);
  EXPECT_EQ(r.atpg.queries, r.atpg.sat_solves + r.atpg.structural_shortcuts);
  EXPECT_GE(r.atpg.untestable, r.removed);
}

TEST(AtpgIncrementalTest, WitnessDropsJournalledAndSessionVerifies) {
  // SAT witnesses drop faults on this circuit in every removal pass,
  // with the random pre-drop running, so the journal below is checked
  // with drops happening.
  Network net = build_suite_circuit(suite_spec("smisex1"));
  decompose_to_simple(net);
  const std::string input = write_blif_string(net);
  proof::ProofSession session;
  session.journal.set_model(net.name());
  session.journal.set_input_digest(proof::digest_bytes(input));
  RedundancyRemovalOptions opts;
  opts.context.session = &session;
  const auto r = remove_redundancies(net, opts);
  ASSERT_GT(r.removed, 0u);
  const std::string output = write_blif_string(net);
  session.journal.set_output_digest(proof::digest_bytes(output));
  // Every removal cites an untestable proof. Witness-dropped faults are
  // not journalled: which faults a witness drops depends on worker
  // timing at jobs > 1, and the journal records only facts that do not.
  std::size_t deletes = 0, untestable = 0;
  for (const auto& s : session.journal.steps()) {
    if (s.kind == proof::JournalStep::Kind::kDelete) ++deletes;
    if (s.kind == proof::JournalStep::Kind::kFaultUntestable) ++untestable;
  }
  EXPECT_GT(r.witness_dropped, 0u);
  EXPECT_EQ(deletes, r.removed);
  EXPECT_EQ(untestable, r.removed);
  EXPECT_FALSE(session.journal.partial());
  // The independent checker accepts the journal and verifies every
  // deletion's certificate.
  const proof::VerifyReport rep =
      proof::verify_session(session, input, output);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.deletions_verified, r.removed);
  // The retired fault-sim-testable and decompose steps are no longer
  // step kinds: a journal carrying either is rejected as an unknown
  // kind, like the retired static steps.
  for (const std::string step :
       {"fault-sim-testable what=\"g1(and)/SA0\"", "decompose count=3"}) {
    std::string text = session.journal.to_text();
    const std::size_t end = text.find("output-digest ");
    ASSERT_NE(end, std::string::npos);
    text.insert(end, "step " + step + "\n");
    std::istringstream in(text);
    try {
      proof::TransformJournal::read(in);
      ADD_FAILURE() << "retired step kind parsed: " << step;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown step kind"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(proof::parse_step(step), std::runtime_error) << step;
  }
}

// A soundness cross-check of the static verdicts lint and `kmscli
// analyze` report: a fault that random or witness simulation detects is
// testable, so no sound static rule may call it untestable.
TEST(AtpgIncrementalTest, SimulatedDetectionsAreNeverStaticallyUntestable) {
  std::vector<Network> nets = test_circuits();
  for (Network& n : example_circuits()) nets.push_back(std::move(n));
  std::size_t static_hits = 0;
  for (const Network& net : nets) {
    if (net.inputs().empty()) continue;
    const auto faults = collapsed_faults(net);
    FaultSimulator sim(net);
    Rng rng(17);
    std::vector<bool> detected = random_detections(sim, net, faults, 8, rng);
    Atpg atpg(net);
    for (const Fault& f : faults) {
      const TestResult t = atpg.generate_test(f);
      if (t.outcome != TestOutcome::kTestable || !t.vector) continue;
      const auto masks = sim.detect_words(faults, witness_words(*t.vector, rng));
      for (std::size_t i = 0; i < faults.size(); ++i)
        if (masks[i] != 0) detected[i] = true;
    }
    const analysis::StaticUntestable engine(net);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      const Fault& f = faults[i];
      if (engine.analyze(f) == analysis::StaticVerdict::kUnknown) continue;
      ++static_hits;
      EXPECT_FALSE(detected[i])
          << net.name() << ": simulation detects statically untestable "
          << format_fault(net, f);
    }
  }
  EXPECT_GT(static_hits, 0u);  // the property was exercised
}

// A certify job's artifacts — output BLIF, journal and DRAT
// certificates — are byte-identical at jobs 1 and 4. Only the WAL is
// left out: its checkpoints carry the removal work counters, which at
// jobs > 1 depend on which worker's witness dropped a fault first.
TEST(AtpgIncrementalTest, CertifyArtifactsByteIdenticalAtJobs1And4) {
  std::vector<Network> nets;
  nets.push_back(carry_skip_adder(8, 2));
  nets.push_back(carry_skip_adder(4, 2));
  for (std::size_t c = 0; c < nets.size(); ++c) {
    const std::string blif = write_blif_string(nets[c]);
    std::map<std::string, std::string> base;
    for (const unsigned jobs : {1u, 4u}) {
      const fs::path dir = temp_path("atpg_incremental_certify_" +
                                     std::to_string(c) + "_j" +
                                     std::to_string(jobs));
      fs::remove_all(dir);
      serve::JobSpec spec;
      spec.kind = serve::JobKind::kCertify;
      spec.blif = blif;
      spec.jobs = jobs;
      spec.emit_proof = dir.string();
      ResourceGovernor gov;
      const serve::JobReport rep = serve::run_job(spec, gov);
      EXPECT_EQ(rep.verdict, "ok") << rep.error;
      EXPECT_TRUE(rep.certified);
      std::map<std::string, std::string> files;
      for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name == "wal.log") continue;
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        files[name] = bytes.str();
      }
      fs::remove_all(dir);
      EXPECT_EQ(files.count("journal.txt"), 1u);
      EXPECT_EQ(files["journal.txt"].find("fault-sim-testable"),
                std::string::npos);
      if (jobs == 1) {
        base = std::move(files);
        continue;
      }
      ASSERT_EQ(files.size(), base.size()) << "circuit " << c;
      for (const auto& [name, bytes] : base)
        EXPECT_EQ(files[name], bytes) << "circuit " << c << ": " << name;
    }
  }
}

TEST(AtpgIncrementalTest, RemovalOrdersStillConvergeIncrementally) {
  // Any scan order must end fully testable and equivalent (the paper's
  // "in any order" claim) — with the cache and witness dropping active.
  for (const RemovalOrder order :
       {RemovalOrder::kForward, RemovalOrder::kReverse,
        RemovalOrder::kRandom}) {
    Network net = carry_skip_adder(4, 2);
    decompose_to_simple(net);
    Network orig = net.clone_compact();
    RedundancyRemovalOptions opts;
    opts.order = order;
    remove_redundancies(net, opts);
    EXPECT_EQ(net.check(), "");
    EXPECT_EQ(count_redundancies(net), 0u);
    EXPECT_TRUE(exhaustive_equiv(orig, net).equivalent);
  }
}

/// Every AtpgStats counter, for equality checks.
std::vector<std::uint64_t> counters(const AtpgStats& s) {
#define KMS_GET(member, ...) s.member,
  return {KMS_ATPG_COUNTERS(KMS_GET)};
#undef KMS_GET
}

std::string certificate_bytes(const TestResult& t) {
  if (!t.certificate) return "";
  std::ostringstream bytes;
  proof::write_cnf(*t.certificate, bytes);
  proof::write_drat(*t.certificate, bytes);
  return bytes.str();
}

// One Atpg answers a pass's queries from solver storage reset per
// query. It must answer each exactly as a fresh Atpg would: outcome,
// test vector, certificate bytes and counters, with proof capture on
// and off, and across governor stops (every seventh query is aborted
// at entry, so a stopped query is followed by unstopped ones).
TEST(AtpgIncrementalTest, ReusedAtpgMatchesFreshPerFault) {
  std::vector<Network> nets = test_networks();
  for (const auto& [bits, block] : {std::pair{4, 2}, std::pair{8, 4}}) {
    nets.push_back(carry_skip_adder(bits, block));
    decompose_to_simple(nets.back());
  }
  std::size_t untestable = 0, unknown = 0, certified = 0;
  for (const Network& net : nets) {
    const auto faults = collapsed_faults(net);
    for (const bool capture : {false, true}) {
      std::vector<std::uint64_t> stopped;
      for (std::uint64_t q = 3; q < 4 * faults.size(); q += 7)
        stopped.push_back(q);
      ResourceGovernor reused_gov, fresh_gov;
      reused_gov.set_injector(FaultInjector::at_indices(stopped));
      fresh_gov.set_injector(FaultInjector::at_indices(stopped));
      Atpg reused(net, &reused_gov);
      reused.set_proof_capture(capture);
      AtpgStats fresh_total;
      for (const Fault& f : faults) {
        const std::string ctx = net.name() + " " + format_fault(net, f) +
                                (capture ? " capture" : "");
        Atpg fresh(net, &fresh_gov);
        fresh.set_proof_capture(capture);
        const TestResult want = fresh.generate_test(f);
        const TestResult got = reused.generate_test(f);
        fresh_total.accumulate(fresh.stats());
        ASSERT_EQ(got.outcome, want.outcome) << ctx;
        EXPECT_EQ(got.vector, want.vector) << ctx;
        EXPECT_EQ(certificate_bytes(got), certificate_bytes(want)) << ctx;
        ASSERT_EQ(counters(reused.stats()), counters(fresh_total)) << ctx;
        untestable += got.outcome == TestOutcome::kUntestable;
        unknown += got.outcome == TestOutcome::kUnknown;
        certified += got.certificate != nullptr;
      }
    }
  }
  EXPECT_GT(untestable, 0u);
  EXPECT_GT(unknown, 0u);
  EXPECT_GT(certified, 0u);
}

}  // namespace
}  // namespace kms

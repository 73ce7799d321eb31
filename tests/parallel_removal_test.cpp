// Parallel redundancy-removal determinism suite.
//
// The central claim of the removal engine (DESIGN.md §12) is that its
// removed-fault set — and therefore the final network — is bit-identical
// at any lane count, because lanes only *speculate* and the coordinator
// commits the scan-order-first untestable verdict exactly as a plain
// scan would. These tests pin that claim across lane counts
// {1, 2, 4, 8}, scan orders, circuits (generated and the example
// BLIFs), the reference scan of tests/reference_removal.hpp, and proof
// sessions — plus the degraded (governor-interrupted) path, where only
// functional equivalence is promised.
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/atpg/atpg.hpp"
#include "src/atpg/redundancy.hpp"
#include "src/base/governor.hpp"
#include "src/base/parallel.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/journal.hpp"
#include "src/proof/verify.hpp"
#include "src/sim/simulator.hpp"
#include "tests/reference_removal.hpp"

namespace kms {
namespace {

namespace fs = std::filesystem;

constexpr unsigned kJobs[] = {1, 2, 4, 8};

std::vector<Network> test_circuits() {
  std::vector<Network> nets;
  nets.push_back(carry_skip_adder(4, 2));
  nets.push_back(carry_skip_adder(8, 2));
  nets.push_back(ripple_carry_adder(4));
  for (std::uint64_t seed = 300; seed < 304; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = seed;
    opts.gates = 35;
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

/// Everything an engine run is required to reproduce exactly.
struct RunFingerprint {
  std::size_t removed = 0;
  std::uint64_t blif_digest = 0;
  std::string blif;  ///< full bytes, for a readable failure message
  /// Journal conclusions: the ordered (kind, fault) pairs of the
  /// untestable/delete steps. Informational steps (sim-testable drops)
  /// are schedule-dependent and deliberately excluded.
  std::vector<std::string> conclusions;
};

RunFingerprint run_removal(const Network& original, unsigned jobs,
                           RemovalOrder order, bool with_session) {
  Network net = original.clone_compact();
  proof::ProofSession session;
  RedundancyRemovalOptions opts;
  opts.order = order;
  opts.context.jobs = jobs;
  if (with_session) opts.context.session = &session;
  const RedundancyRemovalResult r = remove_redundancies(net, opts);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(net.check(), "");

  RunFingerprint fp;
  fp.removed = r.removed;
  fp.blif = write_blif_string(net);
  fp.blif_digest = proof::digest_bytes(fp.blif);
  if (with_session) {
    EXPECT_FALSE(session.journal.partial());
    for (const proof::JournalStep& s : session.journal.steps()) {
      if (s.kind != proof::JournalStep::Kind::kFaultUntestable &&
          s.kind != proof::JournalStep::Kind::kDelete)
        continue;
      fp.conclusions.push_back(
          std::string(proof::journal_kind_name(s.kind)) + " " + s.what);
    }
  }
  return fp;
}

void expect_bit_identical(const Network& original, RemovalOrder order,
                          bool with_session) {
  const RunFingerprint base = run_removal(original, 1, order, with_session);
  for (const unsigned jobs : kJobs) {
    if (jobs == 1) continue;
    const RunFingerprint fp = run_removal(original, jobs, order, with_session);
    EXPECT_EQ(fp.removed, base.removed) << "jobs=" << jobs;
    EXPECT_EQ(fp.blif_digest, base.blif_digest) << "jobs=" << jobs;
    EXPECT_EQ(fp.blif, base.blif) << "jobs=" << jobs;
    EXPECT_EQ(fp.conclusions, base.conclusions) << "jobs=" << jobs;
  }
}

TEST(ParallelRemovalTest, IncrementalEngineBitIdenticalAcrossJobs) {
  for (const Network& net : test_circuits())
    expect_bit_identical(net, RemovalOrder::kForward, /*with_session=*/false);
}

TEST(ParallelRemovalTest, ReferenceScanBitIdenticalAcrossJobs) {
  // Every lane count removes exactly the faults the reference scan
  // removes, in the same order: the same network bytes.
  for (const Network& original : test_circuits()) {
    Network ref_net = original.clone_compact();
    const ReferenceRemoval ref = reference_remove_redundancies(ref_net);
    const std::string ref_blif = write_blif_string(ref_net);
    for (const unsigned jobs : kJobs) {
      const RunFingerprint fp = run_removal(original, jobs,
                                            RemovalOrder::kForward,
                                            /*with_session=*/false);
      EXPECT_EQ(fp.removed, ref.removed) << "jobs=" << jobs;
      EXPECT_EQ(fp.blif, ref_blif) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelRemovalTest, AllScanOrdersBitIdenticalAcrossJobs) {
  // kRandom is the sharp case: the scan permutation is drawn from the
  // main rng, so the engines must consume that stream identically
  // (witness perturbations draw from a separate stream precisely for
  // this).
  const Network net = [] {
    Network n = carry_skip_adder(6, 3);
    decompose_to_simple(n);
    return n;
  }();
  for (const RemovalOrder order :
       {RemovalOrder::kForward, RemovalOrder::kReverse, RemovalOrder::kRandom})
    expect_bit_identical(net, order, /*with_session=*/false);
}

TEST(ParallelRemovalTest, ExampleCircuitsBitIdenticalAcrossJobs) {
  for (const Network& net : example_circuits())
    expect_bit_identical(net, RemovalOrder::kForward, /*with_session=*/false);
}

/// A circuit whose redundancies the static lint rules also catch:
/// y_i = a_i AND (a_i AND b_i), where the direct a_i branch stuck-at-1
/// is untestable. Removal proves each one with SAT.
Network statically_redundant_circuit(std::size_t bits) {
  Network net("statred");
  for (std::size_t i = 0; i < bits; ++i) {
    const GateId a = net.add_input("a" + std::to_string(i));
    const GateId b = net.add_input("b" + std::to_string(i));
    const GateId x = net.add_gate(GateKind::kAnd, {a, b}, 1.0);
    const GateId y = net.add_gate(GateKind::kAnd, {a, x}, 1.0);
    net.add_output("y" + std::to_string(i), y);
  }
  return net;
}

TEST(ParallelRemovalTest, StaticallyRedundantCircuitBitIdenticalAcrossJobs) {
  // One removal per block, each journalled as a SAT-proved untestable
  // fault plus its deletion, with the same conclusions at every job
  // count.
  const Network net = statically_redundant_circuit(4);
  const RunFingerprint base =
      run_removal(net, 1, RemovalOrder::kForward, /*with_session=*/true);
  EXPECT_EQ(base.removed, 4u);
  EXPECT_EQ(base.conclusions.size(), 2 * base.removed);
  expect_bit_identical(net, RemovalOrder::kForward, /*with_session=*/true);
}

TEST(ParallelRemovalTest, JournalConclusionsIdenticalAndSessionsVerify) {
  // With a proof session attached, every thread count must journal the
  // same untestable/delete conclusions in the same order, and each
  // session must verify end to end — certificates captured by worker
  // threads included.
  for (const Network& original : test_circuits()) {
    const std::string input_blif = write_blif_string(original);
    RunFingerprint base;
    for (const unsigned jobs : kJobs) {
      Network net = original.clone_compact();
      proof::ProofSession session;
      session.journal.set_model(net.name());
      session.journal.set_input_digest(proof::digest_bytes(input_blif));
      RedundancyRemovalOptions opts;
      opts.context.jobs = jobs;
      opts.context.session = &session;
      const RedundancyRemovalResult r = remove_redundancies(net, opts);
      EXPECT_FALSE(r.aborted);
      const std::string output_blif = write_blif_string(net);
      session.journal.set_output_digest(proof::digest_bytes(output_blif));

      const proof::VerifyReport rep =
          proof::verify_session(session, input_blif, output_blif);
      EXPECT_TRUE(rep.ok) << "jobs=" << jobs << ": " << rep.error;
      EXPECT_EQ(rep.deletions_verified, r.removed) << "jobs=" << jobs;

      RunFingerprint fp;
      fp.removed = r.removed;
      fp.blif = output_blif;
      for (const proof::JournalStep& s : session.journal.steps()) {
        if (s.kind != proof::JournalStep::Kind::kFaultUntestable &&
            s.kind != proof::JournalStep::Kind::kDelete)
          continue;
        fp.conclusions.push_back(
            std::string(proof::journal_kind_name(s.kind)) + " " + s.what);
      }
      if (jobs == 1) {
        base = fp;
        continue;
      }
      EXPECT_EQ(fp.removed, base.removed) << "jobs=" << jobs;
      EXPECT_EQ(fp.blif, base.blif) << "jobs=" << jobs;
      EXPECT_EQ(fp.conclusions, base.conclusions) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelRemovalTest, ResultIsFullyTestableAndEquivalent) {
  for (const Network& original : test_circuits()) {
    Network net = original.clone_compact();
    RedundancyRemovalOptions opts;
    opts.context.jobs = 4;
    remove_redundancies(net, opts);
    EXPECT_EQ(count_redundancies(net), 0u);
    if (original.inputs().size() <= 14) {
      EXPECT_TRUE(exhaustive_equiv(original, net).equivalent);
    }
  }
}

TEST(ParallelRemovalTest, StatsMergeMatchesSequentialTotals) {
  // Query/verdict accounting flows through the single merge point; the
  // invariant totals must hold at any thread count.
  Network net = carry_skip_adder(8, 2);
  decompose_to_simple(net);
  for (const unsigned jobs : kJobs) {
    Network n = net.clone_compact();
    RedundancyRemovalOptions opts;
    opts.context.jobs = jobs;
    const RedundancyRemovalResult r = remove_redundancies(n, opts);
    EXPECT_EQ(r.atpg.queries, r.atpg.sat_solves + r.atpg.structural_shortcuts)
        << "jobs=" << jobs;
    EXPECT_EQ(r.atpg.queries, r.atpg.testable + r.atpg.untestable +
                                  r.atpg.unknown_queries)
        << "jobs=" << jobs;
    EXPECT_EQ(r.atpg.unknown_queries, 0u) << "jobs=" << jobs;
    EXPECT_GT(r.removed, 0u);
  }
}

TEST(ParallelRemovalTest, GovernorInterruptUnderParallelismStaysSound) {
  // Degraded mode: a governor tripping mid-run must stop all workers,
  // flag the run aborted, and leave a functionally equivalent network —
  // every removal that did land was individually proved. Bit-identity
  // across thread counts is NOT promised here (workers observe the trip
  // at different points); soundness is.
  Network original = carry_skip_adder(8, 2);
  decompose_to_simple(original);
  for (const unsigned jobs : kJobs) {
    for (const std::uint64_t abort_after : {0ull, 3ull, 17ull}) {
      Network net = original.clone_compact();
      ResourceGovernor gov;
      gov.set_injector(FaultInjector::random(
          /*seed=*/abort_after + jobs, /*abort_probability=*/0.3,
          /*cancel_after_queries=*/abort_after + 2));
      RedundancyRemovalOptions opts;
      opts.context.jobs = jobs;
      opts.context.governor = &gov;
      const RedundancyRemovalResult r = remove_redundancies(net, opts);
      // A large-enough budget can let the run finish before the
      // injected cancellation fires; either way the network must be
      // sound. Full testability is only promised for a run that both
      // completed and had no per-query aborts: an injected kUnknown
      // conservatively keeps the fault, so a degraded-but-not-stopped
      // run may leave redundancies behind (never remove them wrongly).
      if (!r.aborted && r.atpg.unknown_queries == 0) {
        EXPECT_EQ(count_redundancies(net), 0u)
            << "jobs=" << jobs << " abort_after=" << abort_after;
      }
      EXPECT_EQ(net.check(), "");
      EXPECT_TRUE(exhaustive_equiv(original, net).equivalent)
          << "jobs=" << jobs << " abort_after=" << abort_after;
    }
  }
}

TEST(ParallelRemovalTest, GovernorInterruptWithSessionJournalsPartial) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  const std::string input_blif = write_blif_string(net);
  proof::ProofSession session;
  session.journal.set_model(net.name());
  session.journal.set_input_digest(proof::digest_bytes(input_blif));
  ResourceGovernor gov;
  gov.set_injector(FaultInjector::random(/*seed=*/5,
                                         /*abort_probability=*/0.5,
                                         /*cancel_after_queries=*/2));
  RedundancyRemovalOptions opts;
  opts.context.jobs = 4;
  opts.context.governor = &gov;
  opts.context.session = &session;
  const RedundancyRemovalResult r = remove_redundancies(net, opts);
  EXPECT_TRUE(r.aborted);
  EXPECT_TRUE(session.journal.partial());
  const std::string output_blif = write_blif_string(net);
  session.journal.set_output_digest(proof::digest_bytes(output_blif));
  const proof::VerifyReport rep =
      proof::verify_session(session, input_blif, output_blif);
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(rep.partial);
}

TEST(ParallelRemovalTest, JobsZeroMeansHardwareConcurrency) {
  RunContext ctx;
  ctx.jobs = 0;
  EXPECT_GE(ctx.effective_jobs(), 1u);
  Network original = carry_skip_adder(4, 2);
  decompose_to_simple(original);
  Network base = original.clone_compact();
  Network net = original.clone_compact();
  RedundancyRemovalOptions seq;
  const auto r1 = remove_redundancies(base, seq);
  RedundancyRemovalOptions hw;
  hw.context.jobs = 0;
  const auto rhw = remove_redundancies(net, hw);
  EXPECT_EQ(rhw.removed, r1.removed);
  EXPECT_EQ(write_blif_string(net), write_blif_string(base));
}

// ---- worker-pool primitives ----------------------------------------------

TEST(ParallelRemovalTest, TicketQueueHandsOutEachIndexOnce) {
  TicketQueue q(1000);
  ThreadPool pool(4);
  std::vector<std::vector<std::size_t>> got(pool.size());
  pool.run([&](unsigned w) {
    for (;;) {
      const std::size_t t = q.next();
      if (t >= q.size()) break;
      got[w].push_back(t);
    }
  });
  std::set<std::size_t> all;
  std::size_t total = 0;
  for (const auto& g : got) {
    total += g.size();
    all.insert(g.begin(), g.end());
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(all.size(), 1000u);
  EXPECT_EQ(*all.begin(), 0u);
  EXPECT_EQ(*all.rbegin(), 999u);
}

TEST(ParallelRemovalTest, ThreadPoolRunsEveryLaneAndIsReusable) {
  ThreadPool pool(3);
  ASSERT_EQ(pool.size(), 3u);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> hits(pool.size(), 0);
    pool.run([&](unsigned w) { hits[w] = 1; });
    for (unsigned w = 0; w < pool.size(); ++w) EXPECT_EQ(hits[w], 1);
  }
}

TEST(ParallelRemovalTest, ThreadPoolOfOneRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  bool ran = false;
  pool.run([&](unsigned w) {
    EXPECT_EQ(w, 0u);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(ParallelRemovalTest, ThreadPoolRethrowsWorkerExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run([&](unsigned w) {
    if (w == pool.size() - 1) throw std::runtime_error("lane failed");
  }),
               std::runtime_error);
  // The barrier completed despite the throw: the pool is still usable.
  std::vector<int> hits(pool.size(), 0);
  pool.run([&](unsigned w) { hits[w] = 1; });
  for (unsigned w = 0; w < pool.size(); ++w) EXPECT_EQ(hits[w], 1);
}

TEST(ParallelRemovalTest, ResolveJobsFloorsAtOne) {
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(7), 7u);
  EXPECT_GE(resolve_jobs(0), 1u);
}

}  // namespace
}  // namespace kms

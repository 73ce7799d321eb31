// The KMS pipeline's determinism suite: end states, journals and proof
// artifacts must be byte-identical at any worker count; the loop's exit
// reason must be recorded (and a governed exit flagged degraded); and
// the real-binary pipeline (kmscli --jobs, kmsproof) must produce
// auditable artifacts whose journal bytes match the one-lane run's.
// The suite keeps the name it had while the loop also had a speculative
// sensitization engine, so its test ids stay stable.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/governor.hpp"
#include "src/core/kms.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/suite.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/journal.hpp"
#include "src/proof/verify.hpp"
#include "tests/temp_path.hpp"

#ifndef KMSCLI_PATH
#error "KMSCLI_PATH must be defined by the build"
#endif
#ifndef KMSPROOF_PATH
#error "KMSPROOF_PATH must be defined by the build"
#endif

namespace kms {
namespace {

/// One full KMS run; returns (output blif, journal text, stats, certs).
struct RunOutcome {
  std::string blif;
  std::string journal;
  KmsStats stats;
  std::size_t certificates = 0;
};

RunOutcome run_kms(Network net, unsigned jobs,
                   ResourceGovernor* gov = nullptr) {
  proof::ProofSession session;
  session.journal.set_model(net.name());
  session.journal.set_input_digest(proof::digest_bytes(write_blif_string(net)));
  KmsOptions opts;
  opts.context.jobs = jobs;
  opts.context.session = &session;
  opts.context.governor = gov;
  RunOutcome out;
  out.stats = kms_make_irredundant(net, opts);
  out.blif = write_blif_string(net);
  session.journal.set_output_digest(proof::digest_bytes(out.blif));
  out.journal = session.journal.to_text();
  out.certificates = session.certificates().size();
  return out;
}

// The acceptance property: jobs 1 and 4 give the same final netlist
// bytes, journal bytes, certificate count, delay doubles and loop work.
// The corpus spans single-component adders and a replicated
// multi-block datapath.
TEST(KmsloopSpeculationTest, ByteIdenticalAcrossJobs) {
  for (Network seed_net : {carry_skip_adder(4, 2), carry_skip_adder(6, 3),
                           replicate_blocks(carry_skip_adder(4, 2), 3)}) {
    decompose_to_simple(seed_net);
    const RunOutcome ref = run_kms(seed_net, /*jobs=*/1);
    EXPECT_GT(ref.stats.iterations, 0u) << seed_net.name();
    const RunOutcome four = run_kms(seed_net, /*jobs=*/4);
    EXPECT_EQ(four.blif, ref.blif) << seed_net.name();
    EXPECT_EQ(four.journal, ref.journal) << seed_net.name();
    EXPECT_EQ(four.certificates, ref.certificates);
    EXPECT_EQ(four.stats.iterations, ref.stats.iterations);
    EXPECT_EQ(four.stats.loop_exit, ref.stats.loop_exit);
    EXPECT_EQ(four.stats.final_topo_delay, ref.stats.final_topo_delay);
    EXPECT_EQ(four.stats.final_computed_delay,
              ref.stats.final_computed_delay);
    EXPECT_EQ(four.stats.sensitization_queries,
              ref.stats.sensitization_queries);
  }
}

// A governor that trips before the loop starts: jobs 1 and 4 both exit
// with loop_exit == "governor" and identical output bytes.
TEST(KmsloopSpeculationTest, PreTrippedGovernorExitsIdentically) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  RunOutcome runs[2];
  for (int i = 0; i < 2; ++i) {
    ResourceGovernor gov;
    gov.request_interrupt();
    runs[i] = run_kms(net, i == 0 ? 1 : 4, &gov);
    EXPECT_EQ(runs[i].stats.loop_exit, "governor");
    EXPECT_EQ(runs[i].stats.iterations, 0u);
    EXPECT_TRUE(runs[i].stats.degraded);
  }
  EXPECT_EQ(runs[0].blif, runs[1].blif);
  EXPECT_EQ(runs[0].journal, runs[1].journal);
}

// An aborted path verdict (every solve forced kUnknown) exits the loop
// with the reason recorded and `degraded` set: without loop_exit this
// would be indistinguishable from the natural kSat exit.
TEST(KmsloopSpeculationTest, UnknownExitIsRecordedAndDegraded) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  ResourceGovernor gov;
  gov.set_injector(
      FaultInjector::random(/*seed=*/1, /*abort_probability=*/1.0));
  KmsOptions opts;
  opts.context.governor = &gov;
  opts.remove_remaining = false;
  const KmsStats stats = kms_make_irredundant(net, opts);
  EXPECT_EQ(stats.loop_exit, "unknown");
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.iterations, 0u);
}

TEST(KmsloopSpeculationTest, InterruptedRunMarksTheFinalDelayAsABound) {
  // An interrupt landing early in the loop leaves a partly transformed
  // network whose final computed-delay search cannot run: the stats
  // carry its topological bound, above the initial computed delay,
  // flagged as a bound.
  Network net = carry_skip_adder(12, 4);
  decompose_to_simple(net);
  const DelayReport initial = computed_delay(net, SensitizationMode::kStatic);
  ASSERT_TRUE(initial.exact);
  ResourceGovernor gov;
  gov.set_injector(FaultInjector::random(
      /*seed=*/1, /*abort_probability=*/0.0,
      /*cancel_after_queries=*/initial.paths_examined + 20));
  KmsOptions opts;
  opts.context.governor = &gov;
  Network cut = net;
  const KmsStats s = kms_make_irredundant(cut, opts);
  EXPECT_TRUE(s.degraded);
  EXPECT_GT(s.iterations, 0u);
  EXPECT_TRUE(s.initial_computed_exact);
  EXPECT_EQ(s.initial_computed_delay, initial.delay);
  EXPECT_FALSE(s.final_computed_exact);
  EXPECT_EQ(s.final_computed_delay, s.final_topo_delay);
  EXPECT_GT(s.final_computed_delay, s.initial_computed_delay);

  // An unlimited run measures both ends.
  opts.context.governor = nullptr;
  opts.remove_remaining = false;
  const KmsStats full = kms_make_irredundant(net, opts);
  EXPECT_TRUE(full.initial_computed_exact);
  EXPECT_TRUE(full.final_computed_exact);
  EXPECT_LE(full.final_computed_delay, full.initial_computed_delay);
}

TEST(KmsloopSpeculationTest, LoopExitReasonsCoverTheNaturalCases) {
  {
    Network net = carry_skip_adder(4, 2);
    decompose_to_simple(net);
    const KmsStats stats = kms_make_irredundant(net);
    EXPECT_TRUE(stats.loop_exit == "sat" || stats.loop_exit == "no-paths")
        << stats.loop_exit;
    EXPECT_FALSE(stats.degraded);
  }
  {
    Network net = carry_skip_adder(4, 2);
    decompose_to_simple(net);
    KmsOptions opts;
    opts.max_iterations = 0;
    const KmsStats stats = kms_make_irredundant(net, opts);
    EXPECT_EQ(stats.loop_exit, "iteration-cap");
    EXPECT_TRUE(stats.iteration_cap_hit);
  }
}

// ---- Real-binary pipeline ------------------------------------------------

int exit_code(const std::string& cmd) {
  const int raw = std::system((cmd + " >/dev/null 2>&1").c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::size_t count_cert_files(const std::string& dir) {
  std::size_t n = 0;
  while (true) {
    std::ifstream in(dir + "/cert_" + std::to_string(n) + ".drat");
    if (!in) return n;
    ++n;
  }
}

// kmscli irr --jobs 4 --certify --emit-proof: the artifact directory
// passes the independent kmsproof audit, and its output, journal bytes
// and certificate count equal the one-lane run's.
TEST(KmsloopSpeculationTest, CliProofArtifactsAuditAndMatchSerial) {
  Network net = replicate_blocks(carry_skip_adder(3, 3), 2);
  decompose_to_simple(net);
  const std::string in_path = temp_path("kmsloop_in.blif");
  const std::string out_serial = temp_path("kmsloop_out_serial.blif");
  const std::string out_four = temp_path("kmsloop_out_four.blif");
  const std::string dir_serial = temp_path("kmsloop_proof_serial");
  const std::string dir_four = temp_path("kmsloop_proof_four");
  write_blif_file(net, in_path);
  std::system(("rm -rf " + dir_serial + " " + dir_four).c_str());

  ASSERT_EQ(exit_code(std::string(KMSCLI_PATH) + " irr " + in_path + " -o " +
                      out_serial + " --certify --emit-proof " + dir_serial),
            0);
  ASSERT_EQ(exit_code(std::string(KMSCLI_PATH) + " irr " + in_path + " -o " +
                      out_four + " --jobs 4 --certify --emit-proof " +
                      dir_four),
            0);
  EXPECT_EQ(exit_code(std::string(KMSPROOF_PATH) + " " + dir_four), 0);

  EXPECT_EQ(slurp(out_four), slurp(out_serial));
  const std::string serial_journal = slurp(dir_serial + "/journal.txt");
  ASSERT_FALSE(serial_journal.empty());
  EXPECT_EQ(slurp(dir_four + "/journal.txt"), serial_journal);
  EXPECT_EQ(count_cert_files(dir_four), count_cert_files(dir_serial));

  std::remove(in_path.c_str());
  std::remove(out_serial.c_str());
  std::remove(out_four.c_str());
  std::system(("rm -rf " + dir_serial + " " + dir_four).c_str());
}

}  // namespace
}  // namespace kms

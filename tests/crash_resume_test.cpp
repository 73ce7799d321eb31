// Crash-equivalence property suite for the durable session layer.
//
// The property: a proof-carrying KMS run killed at ANY durability kill
// point (every fsync / rename boundary of the WAL, checkpoint and
// artifact writes), then resumed from its artifact directory, produces
// a final result bit-identical to the uninterrupted run — output BLIF
// bytes, removed-fault counts, and (at jobs=1, where certificate
// content is schedule-independent) the journal bytes; the finalized
// artifact directory passes the independent checker either way.
//
// The harness enumerates the reachable kill points with a counting
// reference run, then for each index arms KillMode::kThrow (a simulated
// in-process crash that unwinds exactly where a SIGKILL would have cut)
// and replays crash → resume → compare. A crash before the session's
// meta record is durable legitimately has nothing to resume — the
// harness asserts the error is precise and restarts from the source,
// exactly as a user would. A crash after the final record is a
// completed session — resume must refuse and the artifacts must already
// verify.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/base/durable.hpp"
#include "src/core/kms.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/suite.hpp"
#include "src/netlist/blif.hpp"
#include "src/proof/journal.hpp"
#include "src/proof/verify.hpp"
#include "src/recover/session.hpp"
#include "src/recover/wal.hpp"
#include "tests/counter_table.hpp"
#include "tests/temp_path.hpp"

namespace kms {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct RunResult {
  bool crashed = false;
  std::string output;  ///< write_blif_string of the final network
  KmsStats stats;
};

/// The durable pipeline exactly as `kmscli irr --emit-proof` drives it,
/// in-process so KillMode::kThrow can cut it at any boundary.
RunResult run_fresh(const std::string& dir, const std::string& source,
                    unsigned jobs, std::uint64_t checkpoint_every) {
  RunResult rr;
  try {
    BlifSequential model = read_blif_sequential_string(source);
    proof::ProofSession session;
    const std::string proof_input = write_blif_string(model.comb);
    session.journal.set_model(model.comb.name());
    session.journal.set_input_digest(proof::digest_bytes(proof_input));
    KmsOptions opts;
    const recover::SessionMeta meta =
        recover::make_meta(model.comb.name(), opts, checkpoint_every,
                           proof::digest_bytes(source));
    recover::DurableSession dur =
        recover::DurableSession::create(dir, meta, source, &session);
    opts.context.session = &session;
    opts.context.sink = &dur;
    opts.context.jobs = jobs;
    rr.stats = kms_make_irredundant(model.comb, opts);
    rr.output = write_blif_string(model.comb);
    session.journal.set_output_digest(proof::digest_bytes(rr.output));
    dur.finalize(proof_input, rr.output);
  } catch (const CrashInjected&) {
    rr.crashed = true;
  }
  return rr;
}

/// Resume a crashed directory. Throws what prepare_resume throws (the
/// caller decides what a refusal means for the property).
RunResult run_resume(const std::string& dir, unsigned jobs) {
  RunResult rr;
  recover::ResumeSetup rs = recover::prepare_resume(dir);
  try {
    recover::DurableSession dur =
        recover::DurableSession::attach(dir, rs.info, &rs.session);
    KmsOptions opts;
    recover::apply_meta(rs.info.meta, &opts);
    if (rs.info.has_checkpoint) opts.resume = &rs.state;
    opts.context.session = &rs.session;
    opts.context.sink = &dur;
    opts.context.jobs = jobs;
    rr.stats = kms_make_irredundant(rs.model.comb, opts);
    rr.output = write_blif_string(rs.model.comb);
    rs.session.journal.set_output_digest(proof::digest_bytes(rr.output));
    dur.finalize(rs.proof_input, rr.output);
  } catch (const CrashInjected&) {
    rr.crashed = true;
  }
  return rr;
}

/// Errors that only a crash BEFORE the first committed record can
/// produce: the directory holds no session yet, so "resume" means
/// starting over from the original source — anything else is a bug.
bool never_started(const std::string& msg) {
  return msg.find("cannot open") != std::string::npos ||
         msg.find("holds no committed records") != std::string::npos ||
         msg.find("does not start with a meta record") != std::string::npos;
}

/// After a crash: resume if a session was committed, restart if not,
/// accept a completed session as-is. Returns the final output bytes.
std::string finish_after_crash(const std::string& dir,
                               const std::string& source, unsigned jobs,
                               std::uint64_t checkpoint_every) {
  try {
    const RunResult r = run_resume(dir, jobs);
    EXPECT_FALSE(r.crashed) << "resume crashed with kill points disarmed";
    return r.output;
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    if (msg.find("nothing to resume") != std::string::npos) {
      // The crash hit after the final record: session is complete.
      return slurp(dir + "/output.blif");
    }
    if (!never_started(msg)) throw;  // a real resume bug — fail the test
    fs::remove_all(dir);
    const RunResult r = run_fresh(dir, source, jobs, checkpoint_every);
    EXPECT_FALSE(r.crashed);
    return r.output;
  }
}

std::string carry_skip_source() {
  const Network net = carry_skip_adder(3, 3);
  return write_blif_string(net);
}

class CrashResumeTest : public ::testing::Test {
 protected:
  void TearDown() override {
    kill_points_configure(KillMode::kOff);
    fs::remove_all(dir_);
  }
  std::string dir_;
};

/// The core property at jobs=1, checkpoint every commit: crash at every
/// reachable kill point, resume, require bit-identical output AND
/// byte-identical journal, and a verifying artifact directory. `stats`
/// receives the uninterrupted run's counters.
void expect_every_kill_point_resumes_identically(const std::string& source,
                                                 const std::string& dir,
                                                 KmsStats* stats = nullptr) {
  fs::remove_all(dir);
  kill_points_configure(KillMode::kCount);
  const RunResult ref = run_fresh(dir, source, /*jobs=*/1, /*every=*/1);
  const std::uint64_t total = kill_points_seen();
  kill_points_configure(KillMode::kOff);
  ASSERT_FALSE(ref.crashed);
  ASSERT_GT(total, 10u);
  if (stats) *stats = ref.stats;
  const std::string ref_journal = slurp(dir + "/journal.txt");
  ASSERT_FALSE(ref_journal.empty());
  ASSERT_TRUE(proof::verify_artifact_dir(dir).ok);

  for (std::uint64_t k = 1; k <= total; ++k) {
    fs::remove_all(dir);
    kill_points_configure(KillMode::kThrow, k);
    const RunResult crashed = run_fresh(dir, source, 1, 1);
    kill_points_configure(KillMode::kOff);
    ASSERT_TRUE(crashed.crashed) << "kill point " << k << " not reached";
    const std::string out = finish_after_crash(dir, source, 1, 1);
    EXPECT_EQ(out, ref.output) << "output diverged after crash at " << k;
    EXPECT_EQ(slurp(dir + "/journal.txt"), ref_journal)
        << "journal diverged after crash at " << k;
    const proof::VerifyReport rep = proof::verify_artifact_dir(dir);
    EXPECT_TRUE(rep.ok) << "crash at " << k << ": " << rep.error;
  }
}

TEST_F(CrashResumeTest, EveryKillPointResumesIdenticallyJobs1) {
  dir_ = temp_path("crash_resume_j1");
  expect_every_kill_point_resumes_identically(carry_skip_source(), dir_);
}

/// The removal phase's run-wide store of SAT witnesses is not
/// checkpointed: a resumed run restarts it empty, so its passes drop
/// other faults by simulation and send others to SAT. Drops only ever
/// mark testable faults, so output and journal must not move. smisex1
/// drops faults by witness replay in every one of its removal passes.
TEST_F(CrashResumeTest, ResumesIdenticallyWithoutWitnessStore) {
  dir_ = temp_path("crash_resume_witness");
  KmsStats ref;
  expect_every_kill_point_resumes_identically(
      write_blif_string(build_suite_circuit(suite_spec("smisex1"))), dir_,
      &ref);
  EXPECT_GT(ref.removal.passes, 1u);
  EXPECT_GT(ref.removal.witness_dropped, 0u);
}

/// Same property at jobs=4 (checkpoint every 2 commits for cadence
/// diversity). Certificate bytes are schedule-dependent across workers,
/// so the assertion is output bits + removal counts + an artifact
/// directory that verifies — not journal byte-equality.
TEST_F(CrashResumeTest, EveryKillPointResumesIdenticallyJobs4) {
  const std::string source = carry_skip_source();
  dir_ = temp_path("crash_resume_j4");
  fs::remove_all(dir_);

  kill_points_configure(KillMode::kCount);
  const RunResult ref = run_fresh(dir_, source, /*jobs=*/4, /*every=*/2);
  const std::uint64_t total = kill_points_seen();
  kill_points_configure(KillMode::kOff);
  ASSERT_FALSE(ref.crashed);
  ASSERT_TRUE(proof::verify_artifact_dir(dir_).ok);

  for (std::uint64_t k = 1; k <= total; ++k) {
    fs::remove_all(dir_);
    kill_points_configure(KillMode::kThrow, k);
    const RunResult crashed = run_fresh(dir_, source, 4, 2);
    kill_points_configure(KillMode::kOff);
    ASSERT_TRUE(crashed.crashed) << "kill point " << k << " not reached";
    const std::string out = finish_after_crash(dir_, source, 4, 2);
    EXPECT_EQ(out, ref.output) << "output diverged after crash at " << k;
    const proof::VerifyReport rep = proof::verify_artifact_dir(dir_);
    EXPECT_TRUE(rep.ok) << "crash at " << k << ": " << rep.error;
  }
}

/// Crashing the RESUME run too (a double crash) still converges.
TEST_F(CrashResumeTest, DoubleCrashStillConverges) {
  const std::string source = carry_skip_source();
  dir_ = temp_path("crash_resume_double");
  fs::remove_all(dir_);

  kill_points_configure(KillMode::kCount);
  const RunResult ref = run_fresh(dir_, source, 1, 1);
  const std::uint64_t total = kill_points_seen();
  kill_points_configure(KillMode::kOff);
  ASSERT_FALSE(ref.crashed);
  const std::string ref_journal = slurp(dir_ + "/journal.txt");

  // First crash mid-run, second crash early in the resume.
  for (const std::uint64_t first : {total / 3, total / 2, total - 1}) {
    if (first == 0) continue;
    fs::remove_all(dir_);
    kill_points_configure(KillMode::kThrow, first);
    ASSERT_TRUE(run_fresh(dir_, source, 1, 1).crashed);
    kill_points_configure(KillMode::kThrow, 3);
    try {
      const RunResult again = run_resume(dir_, 1);
      EXPECT_TRUE(again.crashed);  // must not survive an armed kill point
    } catch (const std::runtime_error&) {
      // Crash #1 predated any committed record; nothing to re-crash.
    }
    kill_points_configure(KillMode::kOff);
    const std::string out = finish_after_crash(dir_, source, 1, 1);
    EXPECT_EQ(out, ref.output) << "double crash at " << first;
    EXPECT_EQ(slurp(dir_ + "/journal.txt"), ref_journal);
    EXPECT_TRUE(proof::verify_artifact_dir(dir_).ok);
  }
}

/// Loop-accounting equivalence: every loop-group counter of a resumed
/// run (src/core/counters.hpp) must equal the uninterrupted run's. The
/// STA totals are the delicate ones: a resume must continue the restored
/// totals, not count the attach-time constructor rebuild on top of them.
TEST_F(CrashResumeTest, ResumedStaTotalsEqualUninterrupted) {
  const std::string source = carry_skip_source();
  dir_ = temp_path("crash_resume_sta");
  fs::remove_all(dir_);

  kill_points_configure(KillMode::kCount);
  const RunResult ref = run_fresh(dir_, source, 1, 1);
  const std::uint64_t total = kill_points_seen();
  kill_points_configure(KillMode::kOff);
  ASSERT_FALSE(ref.crashed);
  ASSERT_GT(ref.stats.sta_applies, 0u);
  ASSERT_GT(ref.stats.sta_enum_reseeds, 0u);

  std::size_t compared = 0;
  for (const std::uint64_t k :
       {total / 4, total / 3, total / 2, (2 * total) / 3}) {
    if (k == 0) continue;
    fs::remove_all(dir_);
    kill_points_configure(KillMode::kThrow, k);
    ASSERT_TRUE(run_fresh(dir_, source, 1, 1).crashed)
        << "kill point " << k << " not reached";
    kill_points_configure(KillMode::kOff);
    RunResult resumed;
    try {
      resumed = run_resume(dir_, 1);
    } catch (const std::runtime_error&) {
      continue;  // crash predated the first committed record
    }
    ASSERT_FALSE(resumed.crashed);
    EXPECT_EQ(resumed.output, ref.output) << "kill point " << k;
    // Every loop-group counter. The removal group's work counters are
    // left out: the run-wide witness store is not checkpointed, so a
    // resumed removal phase may simulate and solve differently.
    testing_counters::expect_loop_counters_equal(
        resumed.stats, ref.stats, "kill point " + std::to_string(k));
    ++compared;
  }
  EXPECT_GT(compared, 0u) << "no kill point produced a resumable session";
}

/// Records the network and counters the engine announces at one loop
/// commit, as a checkpoint would.
class LoopSnapshotSink : public recover::CommitSink {
 public:
  explicit LoopSnapshotSink(std::uint64_t cursor) : cursor_(cursor) {}
  void commit(const recover::CommitPoint& p) override { take(p); }
  void checkpoint(const recover::CommitPoint& p) override { take(p); }

  std::optional<Network> net;
  KmsStats stats;

 private:
  void take(const recover::CommitPoint& p) {
    if (net || p.kms == nullptr || std::string(p.phase) != "loop" ||
        p.cursor != cursor_)
      return;
    net = *p.net;
    stats = *p.kms;
  }
  std::uint64_t cursor_;
};

/// Resume the engine in process on a generated adder whose XOR and MUX
/// gates were decomposed in process rather than elaborated from BLIF
/// covers: continue from the network and counters of a loop commit, and
/// every loop-group counter must equal the uninterrupted run's.
TEST(LoopResumeTest, EveryLoopCounterEqualsUninterruptedOnComplexGates) {
  Network adder = carry_skip_adder(6, 3);
  ASSERT_GT(decompose_to_simple(adder), 0u);
  Network ref_net = adder;
  const KmsStats ref = kms_make_irredundant(ref_net, KmsOptions{});
  ASSERT_GT(ref.iterations, 1u);
  for (const std::uint64_t cursor : {std::uint64_t{0}, ref.iterations / 2}) {
    Network net = adder;
    LoopSnapshotSink sink(cursor);
    KmsOptions opts;
    opts.context.sink = &sink;
    kms_make_irredundant(net, opts);
    ASSERT_TRUE(sink.net.has_value()) << cursor;
    KmsResumeState state;
    state.phase = "loop";
    state.cursor = cursor;
    state.stats = sink.stats;
    KmsOptions resume_opts;
    resume_opts.resume = &state;
    Network resumed = *sink.net;
    const KmsStats got = kms_make_irredundant(resumed, resume_opts);
    EXPECT_EQ(write_blif_string(resumed), write_blif_string(ref_net));
    testing_counters::expect_loop_counters_equal(
        got, ref, "cursor " + std::to_string(cursor));
  }
}

/// The "ckpt" records of a session's WAL, each read line by line as a
/// key -> rest-of-line map (a line without a space maps to "").
std::vector<std::map<std::string, std::string>> checkpoint_maps(
    const std::string& dir) {
  const recover::WalReadResult wal = recover::read_wal(dir + "/wal.log");
  EXPECT_TRUE(wal.ok) << wal.error;
  std::vector<std::map<std::string, std::string>> out;
  const std::string tag = "ckpt\n";
  for (const recover::WalRecord& r : wal.records) {
    if (r.payload.rfind(tag, 0) != 0) continue;
    std::map<std::string, std::string>& m = out.emplace_back();
    std::istringstream in(r.payload.substr(tag.size()));
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t sp = line.find(' ');
      m[line.substr(0, sp)] =
          sp == std::string::npos ? "" : line.substr(sp + 1);
    }
  }
  return out;
}

/// Checkpoints hold only what a lane count cannot change: at jobs 1 and
/// 4, record for record, every key is equal except the removal and ATPG
/// work counters, which follow worker timing. csa_40_20 commits 23
/// removal passes after 10 loop iterations, each one checkpoint, and at
/// jobs 4 its lanes classify faults past a pass's first untestable one.
TEST_F(CrashResumeTest, CheckpointsAgreeAcrossJobCounts) {
  const std::string source = write_blif_string(carry_skip_adder(40, 20));
  dir_ = temp_path("crash_resume_ckpt_jobs");
  std::vector<std::vector<std::map<std::string, std::string>>> runs;
  for (const unsigned jobs : {1u, 4u}) {
    fs::remove_all(dir_);
    ASSERT_FALSE(run_fresh(dir_, source, jobs, /*every=*/1).crashed) << jobs;
    runs.push_back(checkpoint_maps(dir_));
  }
  ASSERT_GT(runs[0].size(), 10u);
  ASSERT_EQ(runs[0].size(), runs[1].size());
  const auto timing_dependent = [](const std::string& key) {
    if (key == "rm.removed" || key == "rm.passes" || key == "rm.aborted")
      return false;
    return key.rfind("rm.", 0) == 0 || key.rfind("atpg.", 0) == 0;
  };
  for (std::size_t i = 0; i < runs[0].size(); ++i) {
    std::map<std::string, std::string> a = runs[0][i];
    std::map<std::string, std::string> b = runs[1][i];
    ASSERT_TRUE(a.count("rm.removed") && a.count("rm.passes") &&
                a.count("rm.aborted"))
        << "record " << i;
    for (auto* m : {&a, &b})
      for (auto it = m->begin(); it != m->end();)
        it = timing_dependent(it->first) ? m->erase(it) : std::next(it);
    EXPECT_EQ(a, b) << "checkpoint record " << i << " differs";
  }
}

/// Resume must reject a session whose source file was swapped out.
TEST_F(CrashResumeTest, RejectsTamperedSource) {
  const std::string source = carry_skip_source();
  dir_ = temp_path("crash_resume_tamper");
  fs::remove_all(dir_);
  kill_points_configure(KillMode::kCount);
  const RunResult ref = run_fresh(dir_, source, 1, 1);
  const std::uint64_t total = kill_points_seen();
  kill_points_configure(KillMode::kThrow, total / 2);
  fs::remove_all(dir_);
  ASSERT_TRUE(run_fresh(dir_, source, 1, 1).crashed);
  kill_points_configure(KillMode::kOff);
  {
    std::ofstream out(dir_ + "/source.blif", std::ios::trunc);
    out << ".model forged\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n";
  }
  EXPECT_THROW(run_resume(dir_, 1), std::runtime_error);
  (void)ref;
}

/// A completed session must refuse to resume.
TEST_F(CrashResumeTest, RefusesToResumeCompletedSession) {
  const std::string source = carry_skip_source();
  dir_ = temp_path("crash_resume_done");
  fs::remove_all(dir_);
  ASSERT_FALSE(run_fresh(dir_, source, 1, 1).crashed);
  try {
    run_resume(dir_, 1);
    FAIL() << "resume of a completed session must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nothing to resume"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace kms

// End-to-end test of the proof-carrying pipeline through the real
// binaries: kmscli irr --certify --emit-proof produces an artifact
// directory that kmsproof verifies, and corrupted artifacts — a
// tampered proof, a forged journal step, a swapped output netlist — are
// rejected with exit code 2.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "src/gen/adders.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "tests/temp_path.hpp"

#ifndef KMSCLI_PATH
#error "KMSCLI_PATH must be defined by the build"
#endif
#ifndef KMSPROOF_PATH
#error "KMSPROOF_PATH must be defined by the build"
#endif

namespace kms {
namespace {

int exit_code(const std::string& cmd) {
  const int raw = std::system((cmd + " >/dev/null 2>&1").c_str());
  return WIFEXITED(raw) ? WEXITSTATUS(raw) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

/// Fixture: one certified run over a redundant carry-skip adder, with
/// the artifact directory recreated fresh for each corruption.
class KmsproofTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Network net = carry_skip_adder(3, 3);
    decompose_to_simple(net);
    in_path_ = temp_path("kmsproof_in.blif");
    out_path_ = temp_path("kmsproof_out.blif");
    dir_ = temp_path("kmsproof_artifacts");
    write_blif_file(net, in_path_);
    std::system(("rm -rf " + dir_).c_str());
    ASSERT_EQ(exit_code(std::string(KMSCLI_PATH) + " irr " + in_path_ +
                        " -o " + out_path_ + " --certify --emit-proof " +
                        dir_),
              0);
  }

  void TearDown() override {
    std::remove(in_path_.c_str());
    std::remove(out_path_.c_str());
    std::system(("rm -rf " + dir_).c_str());
  }

  int verify() { return exit_code(std::string(KMSPROOF_PATH) + " " + dir_); }

  std::string in_path_, out_path_, dir_;
};

TEST_F(KmsproofTest, EmittedArtifactsVerify) {
  EXPECT_EQ(verify(), 0);
}

TEST_F(KmsproofTest, SingleCertificatePairVerifies) {
  // The carry-skip adder has redundancies, so at least q0 exists.
  EXPECT_EQ(exit_code(std::string(KMSPROOF_PATH) + " --proof " + dir_ +
                      "/q0.cnf " + dir_ + "/q0.drat"),
            0);
}

TEST_F(KmsproofTest, RejectsTamperedCertificate) {
  // Gut the CNF: keep only the header. The journal's untestable-fault
  // steps now cite certificates whose conclusions have no support.
  spit(dir_ + "/q0.cnf", "p cnf 1 0\n");
  EXPECT_EQ(verify(), 2);
}

TEST_F(KmsproofTest, RejectsForgedJournalDeletion) {
  // Remove the untestable-fault verdicts: the deletions that cited them
  // become unproved claims.
  std::istringstream in(slurp(dir_ + "/journal.txt"));
  std::ostringstream out;
  std::string line;
  bool dropped = false;
  while (std::getline(in, line)) {
    if (line.rfind("step fault-untestable", 0) == 0) {
      dropped = true;
      continue;
    }
    out << line << "\n";
  }
  ASSERT_TRUE(dropped) << "run produced no untestable-fault steps";
  spit(dir_ + "/journal.txt", out.str());
  EXPECT_EQ(verify(), 2);
}

TEST_F(KmsproofTest, RejectsSwappedOutputNetlist) {
  spit(dir_ + "/output.blif",
       ".model x\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n");
  EXPECT_EQ(verify(), 2);
}

TEST_F(KmsproofTest, RejectsJournalClaimingUnprovedDeletion) {
  // Redirect a delete step at a proof id that was never emitted.
  std::istringstream in(slurp(dir_ + "/journal.txt"));
  std::ostringstream out;
  std::string line;
  bool rewrote = false;
  while (std::getline(in, line)) {
    if (!rewrote && line.rfind("step delete proof=", 0) == 0) {
      const auto what = line.find(" what=");
      ASSERT_NE(what, std::string::npos);
      out << "step delete proof=9999" << line.substr(what) << "\n";
      rewrote = true;
      continue;
    }
    out << line << "\n";
  }
  ASSERT_TRUE(rewrote) << "run produced no delete steps";
  spit(dir_ + "/journal.txt", out.str());
  EXPECT_EQ(verify(), 2);
}

TEST_F(KmsproofTest, UsageErrorsExitOne) {
  EXPECT_EQ(exit_code(std::string(KMSPROOF_PATH)), 1);
  EXPECT_EQ(exit_code(std::string(KMSPROOF_PATH) + " --bogus"), 1);
}

TEST_F(KmsproofTest, MissingDirectoryRejected) {
  EXPECT_EQ(exit_code(std::string(KMSPROOF_PATH) + " " +
                      temp_path("kmsproof_no_such_dir")),
            2);
}

}  // namespace
}  // namespace kms

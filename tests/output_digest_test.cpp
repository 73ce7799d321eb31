// Pinned output digests: `kmscli irr` (run_job) at --jobs 1 and 4 must
// reproduce, byte for byte, the output BLIF recorded for carry-skip
// adders, a replicated datapath, the MCNC substitutes and the example
// netlists. The FNV-1a digests below were taken from a build before the
// KMS loop's path-scoped rewrite (worklist surgery, repaired STA order,
// path-scoped sensitization, model reuse in computed_delay); any change
// to a digest is a change to the engine's output and must be deliberate.
//
// A second table pins the two other removal scan orders. kRandom draws
// its scan order from the removal phase's main rng right after the
// pass's random pre-drop words, so its digests also pin how many words
// each pass draws, and when; kReverse pins the pre-drop and witness
// replay under a scan that starts from the other end of the fault list.
//
// A third table pins a certify job's proof artifacts, `kmscli irr
// --certify --emit-proof` at --jobs 1 and 4: journal.txt followed by
// every certificate's q<N>.cnf and q<N>.drat (write_cnf and write_drat
// output), digested as one byte string.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/atpg/redundancy.hpp"
#include "src/base/governor.hpp"
#include "src/core/kms.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/suite.hpp"
#include "src/netlist/blif.hpp"
#include "src/proof/journal.hpp"
#include "src/serve/job.hpp"
#include "src/serve/runner.hpp"
#include "tests/temp_path.hpp"

namespace kms {
namespace {

struct Pinned {
  const char* name;
  std::uint64_t digest;
};

constexpr Pinned kPinned[] = {
    {"csa_4_2", 0xaf0dddf727b64469ull},  {"csa_4_4", 0xe1da222f623aa72dull},
    {"csa_6_2", 0x1e02efd2c3bc78e1ull},  {"csa_6_3", 0x674f5e0f772ba757ull},
    {"csa_8_2", 0x2d8ffc3dd0bfcccbull},  {"csa_8_4", 0x26786b3bed619c46ull},
    {"csa_16_4", 0x736596f9ca3a6637ull}, {"csa_4_2_x3", 0x933ee535907aef55ull},
    {"s5xp1", 0x87c8d504ce932d43ull},    {"sclip", 0x832d9951eea67088ull},
    {"sduke2", 0x816d2aa32db53ce2ull},   {"sf51m", 0x8ff56b0097d12775ull},
    {"smisex1", 0x43600cf33e1f947bull},  {"smisex2", 0xdaaf182a578ae5b5ull},
    {"srd73", 0xa7588d8ebe771e75ull},    {"ssao2", 0x1c73463610e234c7ull},
    {"sz4ml", 0x9d391995eaa20375ull},    {"counter2", 0x04ec75b2ef430c65ull},
    {"fulladder", 0x996dd30a62e1a916ull}, {"parity4", 0x449efc871888134bull},
    {"statred", 0x605665a4c3ff777bull},
};

void PrintTo(const Pinned& p, std::ostream* os) { *os << p.name; }

/// Input BLIF of a pinned circuit, as `kmscli irr` reads it.
std::string input_blif(const std::string& name) {
  if (name.rfind("csa_", 0) == 0) {
    std::size_t bits = 0, block = 0;
    char sep = 0;
    std::istringstream in(name.substr(4));
    in >> bits >> sep >> block;
    const Network adder = carry_skip_adder(bits, block);
    return write_blif_string(name.ends_with("_x3") ? replicate_blocks(adder, 3)
                                                   : adder);
  }
  if (name[0] == 's' && name != "statred")
    return write_blif_string(build_suite_circuit(suite_spec(name)));
  std::ifstream in(std::string(EXAMPLES_DIR) + "/" + name + ".blif");
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

class OutputDigestTest : public testing::TestWithParam<Pinned> {};

TEST_P(OutputDigestTest, MatchesPinnedAtJobs1And4) {
  const Pinned& p = GetParam();
  const std::string blif = input_blif(p.name);
  for (const std::uint64_t jobs : {1u, 4u}) {
    serve::JobSpec spec;
    spec.kind = serve::JobKind::kIrr;
    spec.blif = blif;
    spec.jobs = jobs;
    ResourceGovernor gov;
    const serve::JobReport rep = serve::run_job(spec, gov);
    ASSERT_EQ(rep.verdict, "ok") << p.name << ": " << rep.error;
    EXPECT_EQ(rep.output_digest, proof::digest_bytes(rep.output_blif));
    EXPECT_EQ(rep.output_digest, p.digest)
        << p.name << " at jobs " << jobs << std::hex << ": got 0x"
        << rep.output_digest;
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, OutputDigestTest, testing::ValuesIn(kPinned),
                         [](const testing::TestParamInfo<Pinned>& info) {
                           return std::string(info.param.name);
                         });

struct PinnedOrder {
  const char* name;
  RemovalOrder order;
  std::uint64_t digest;
};

// Taken from a build before the removal pass classified faults per
// ticket (pre-drop words simulated up front, eager witness sweeps).
constexpr PinnedOrder kPinnedOrders[] = {
    {"csa_4_2", RemovalOrder::kRandom, 0x1b779a2622436074ull},
    {"csa_6_3", RemovalOrder::kRandom, 0xc338da2e085bcc06ull},
    {"csa_4_2_x3", RemovalOrder::kRandom, 0x8287214118841a3bull},
    {"csa_4_4", RemovalOrder::kReverse, 0x31590dfc1cea79b1ull},
    {"csa_6_2", RemovalOrder::kReverse, 0x1bf17e81a35e5f5full},
    {"statred", RemovalOrder::kReverse, 0x5189ce03a818d707ull},
};

void PrintTo(const PinnedOrder& p, std::ostream* os) { *os << p.name; }

class OrderDigestTest : public testing::TestWithParam<PinnedOrder> {};

TEST_P(OrderDigestTest, MatchesPinnedAtJobs1And4) {
  const PinnedOrder& p = GetParam();
  const std::string blif = input_blif(p.name);
  for (const unsigned jobs : {1u, 4u}) {
    BlifSequential model = read_blif_sequential_string(blif);
    KmsOptions opts;
    opts.removal.order = p.order;
    opts.context.jobs = jobs;
    kms_make_irredundant(model.comb, opts);
    const std::uint64_t digest =
        proof::digest_bytes(write_blif_string(model.comb));
    EXPECT_EQ(digest, p.digest) << p.name << " at jobs " << jobs << std::hex
                                << ": got 0x" << digest;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Orders, OrderDigestTest, testing::ValuesIn(kPinnedOrders),
    [](const testing::TestParamInfo<PinnedOrder>& info) {
      return std::string(info.param.name) +
             (info.param.order == RemovalOrder::kRandom ? "_random"
                                                        : "_reverse");
    });

// Taken from a build before proof capture and checking went flat (one
// literal buffer per trace, DIMACS clauses built only for UNSAT queries).
constexpr Pinned kPinnedProofs[] = {
    {"csa_4_2", 0xc7609c58bcd85307ull},
    {"csa_8_4", 0x4b32d88c7f5d5834ull},
    {"smisex1", 0xedb4dae5302526a9ull},
    {"sduke2", 0x4896f6fb69cfcb21ull},
};

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

class ProofDigestTest : public testing::TestWithParam<Pinned> {};

TEST_P(ProofDigestTest, MatchesPinnedAtJobs1And4) {
  namespace fs = std::filesystem;
  const Pinned& p = GetParam();
  const std::string blif = input_blif(p.name);
  for (const unsigned jobs : {1u, 4u}) {
    const fs::path dir = temp_path(std::string("output_digest_proof_") +
                                   p.name + "_j" + std::to_string(jobs));
    fs::remove_all(dir);
    serve::JobSpec spec;
    spec.kind = serve::JobKind::kCertify;
    spec.emit_proof = dir.string();
    spec.blif = blif;
    spec.jobs = jobs;
    ResourceGovernor gov;
    const serve::JobReport rep = serve::run_job(spec, gov);
    ASSERT_EQ(rep.verdict, "ok") << p.name << ": " << rep.error;
    EXPECT_TRUE(rep.certified) << p.name;
    std::string bytes = slurp(dir / "journal.txt");
    std::size_t certs = 0;
    for (; fs::exists(dir / ("q" + std::to_string(certs) + ".cnf")); ++certs) {
      const std::string q = "q" + std::to_string(certs);
      bytes += slurp(dir / (q + ".cnf"));
      bytes += slurp(dir / (q + ".drat"));
    }
    fs::remove_all(dir);
    EXPECT_GT(certs, 0u) << p.name;
    const std::uint64_t digest = proof::digest_bytes(bytes);
    EXPECT_EQ(digest, p.digest) << p.name << " at jobs " << jobs << std::hex
                                << ": got 0x" << digest;
  }
}

INSTANTIATE_TEST_SUITE_P(Certify, ProofDigestTest,
                         testing::ValuesIn(kPinnedProofs),
                         [](const testing::TestParamInfo<Pinned>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace kms

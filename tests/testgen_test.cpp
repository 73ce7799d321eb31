#include "src/atpg/testgen.hpp"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <string>

#include <gtest/gtest.h>

#include "src/atpg/fault_sim.hpp"
#include "src/core/kms.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"

namespace kms {
namespace {

TEST(TestGenTest, FullCoverageOnRippleAdder) {
  Network net = ripple_carry_adder(4);
  decompose_to_simple(net);
  const TestSet set = generate_test_set(net);
  EXPECT_EQ(set.redundant_faults, 0u);
  EXPECT_DOUBLE_EQ(set.coverage, 1.0);
  EXPECT_FALSE(set.vectors.empty());
  // Verify independently with the fault simulator.
  EXPECT_DOUBLE_EQ(
      fault_coverage(net, collapsed_faults(net), set.vectors), 1.0);
}

TEST(TestGenTest, ReportsRedundantFaults) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  const TestSet set = generate_test_set(net);
  EXPECT_GE(set.redundant_faults, 2u);  // 2 per block before removal
  EXPECT_DOUBLE_EQ(set.coverage, 1.0);  // of the *testable* ones
}

TEST(TestGenTest, CompactionNeverLosesCoverage) {
  for (std::uint64_t seed = 400; seed < 406; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = seed;
    opts.gates = 30;
    Network net = random_network(opts);
    TestGenOptions with, without;
    with.compact = true;
    without.compact = false;
    const TestSet a = generate_test_set(net, with);
    const TestSet b = generate_test_set(net, without);
    EXPECT_DOUBLE_EQ(a.coverage, 1.0) << seed;
    EXPECT_DOUBLE_EQ(b.coverage, 1.0) << seed;
    EXPECT_LE(a.vectors.size(), b.vectors.size()) << seed;
  }
}

TEST(TestGenTest, KmsResultNeedsNoSpeedtestJustThisSet) {
  // The end-to-end story: KMS result + complete stuck-at test set.
  Network net = carry_skip_adder(6, 2);
  decompose_to_simple(net);
  apply_unit_delays(net);
  kms_make_irredundant(net, {});
  const TestSet set = generate_test_set(net);
  EXPECT_EQ(set.redundant_faults, 0u);
  EXPECT_DOUBLE_EQ(set.coverage, 1.0);
}

TEST(TestGenTest, DeterministicForSeed) {
  Network net = ripple_carry_adder(3);
  decompose_to_simple(net);
  const TestSet a = generate_test_set(net);
  const TestSet b = generate_test_set(net);
  EXPECT_EQ(a.vectors, b.vectors);
}

/// FNV-1a over the vectors' bits, vector by vector.
std::uint64_t digest(const std::vector<std::vector<bool>>& vectors) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ull;
  };
  for (const auto& v : vectors) {
    mix(v.size());
    for (const bool b : v) mix(b ? 1 : 0);
  }
  return h;
}

/// generate_test_set output pinned to the figures of the implementation
/// that simulated every fault against every word: fault dropping must
/// not change a single vector. Modes: "compact" (defaults), "full" (no
/// compaction), "one_word" (a single random word, leaving more faults to
/// exact ATPG and its fault dropping), "stopped" (an interrupted
/// governor aborts every exact query, so survivors of the random phase
/// stay unknown).
TEST(TestGenTest, PinnedTestSets) {
  struct Pin {
    std::string name;
    std::string mode;
    std::size_t vectors;
    std::uint64_t digest;
    double coverage;
    std::size_t redundant;
    std::size_t unknown;
  };
  const std::vector<Pin> pins = {
      {"fulladder", "compact", 8, 0xe2df16021a330f89ull, 1, 0, 0},
      {"fulladder", "full", 8, 0xbca7de7f223b6c49ull, 1, 0, 0},
      {"fulladder", "one_word", 8, 0xe2df16021a330f89ull, 1, 0, 0},
      {"fulladder", "stopped", 8, 0xe2df16021a330f89ull, 1, 0, 0},
      {"parity4", "compact", 5, 0xad5d6f951841dd8eull, 1, 0, 0},
      {"parity4", "full", 6, 0x5e2ae7480db01058ull, 1, 0, 0},
      {"parity4", "one_word", 5, 0xad5d6f951841dd8eull, 1, 0, 0},
      {"parity4", "stopped", 5, 0xad5d6f951841dd8eull, 1, 0, 0},
      {"statred", "compact", 3, 0x28e9c8bc4c53ae49ull, 1, 4, 0},
      {"statred", "full", 5, 0x58aa0172a788b787ull, 1, 4, 0},
      {"statred", "one_word", 3, 0x28e9c8bc4c53ae49ull, 1, 4, 0},
      {"statred", "stopped", 3, 0x28e9c8bc4c53ae49ull, 1, 4, 0},
      {"counter2", "compact", 5, 0x9085a98acf85a51bull, 1, 0, 0},
      {"counter2", "full", 5, 0x3b0385f91537221bull, 1, 0, 0},
      {"counter2", "one_word", 5, 0x9085a98acf85a51bull, 1, 0, 0},
      {"counter2", "stopped", 5, 0x9085a98acf85a51bull, 1, 0, 0},
      {"csa_8_2", "compact", 16, 0x8f1c260fe5bd4736ull, 1, 8, 0},
      {"csa_8_2", "full", 24, 0x41ee1941cc80b3d0ull, 1, 8, 0},
      {"csa_8_2", "one_word", 16, 0x8f1c260fe5bd4736ull, 1, 8, 0},
      {"csa_8_2", "stopped", 16, 0x8f1c260fe5bd4736ull,
       0.96992481203007519, 0, 8},
      {"wide_16", "compact", 24, 0x803ed1c983b4add6ull, 1, 112, 0},
      {"wide_16", "full", 37, 0x3c538b36981364deull, 1, 112, 0},
      {"wide_16", "one_word", 25, 0x1bda7f7e7cc94da8ull, 1, 112, 0},
      {"wide_16", "stopped", 18, 0x61f81eca393d4ed7ull,
       0.53488372093023251, 29, 100},
      {"wide_20", "compact", 17, 0xab0d35e47057abd0ull, 1, 59, 0},
      {"wide_20", "full", 27, 0x2ceafd06bfb79220ull, 1, 59, 0},
      {"wide_20", "one_word", 19, 0x88c1556a7c96c7bull, 1, 59, 0},
      {"wide_20", "stopped", 17, 0x2477e5c432ceeb07ull,
       0.6992481203007519, 21, 40},
  };
  std::vector<std::pair<std::string, Network>> nets;
  for (const auto& entry : std::filesystem::directory_iterator(EXAMPLES_DIR)) {
    if (entry.path().extension() != ".blif") continue;
    std::ifstream in(entry.path());
    nets.emplace_back(entry.path().stem().string(),
                      read_blif_sequential(in).comb);
  }
  Network csa = carry_skip_adder(8, 2);
  decompose_to_simple(csa);
  nets.emplace_back("csa_8_2", std::move(csa));
  // Wide AND/OR logic: random-pattern-resistant faults, so exact ATPG
  // adds vectors and drops faults with them.
  for (const std::size_t inputs : {16, 20}) {
    RandomNetworkOptions wide;
    wide.inputs = inputs;
    wide.outputs = 6;
    wide.gates = 60;
    wide.max_fanin = 5;
    wide.locality = 0.3;
    wide.allow_xor = false;
    wide.seed = inputs == 16 ? 21 : 22;
    nets.emplace_back("wide_" + std::to_string(inputs), random_network(wide));
  }
  std::size_t checked = 0;
  for (const auto& [name, net] : nets) {
    for (const std::string mode : {"compact", "full", "one_word", "stopped"}) {
      ResourceGovernor stopped;
      stopped.request_interrupt();
      TestGenOptions opts;
      opts.compact = mode != "full";
      if (mode == "one_word") opts.random_words = 1;
      if (mode == "stopped") opts.governor = &stopped;
      const TestSet set = generate_test_set(net, opts);
      const std::string label = name + " " + mode;
      const auto pin =
          std::find_if(pins.begin(), pins.end(), [&](const Pin& p) {
            return p.name == name && p.mode == mode;
          });
      if (pin == pins.end()) {
        ADD_FAILURE() << "no pin for " << label << ": {\"" << name
                      << "\", \"" << mode << "\", " << set.vectors.size()
                      << ", 0x" << std::hex << digest(set.vectors)
                      << std::dec << "ull, " << std::setprecision(17)
                      << set.coverage << ", " << set.redundant_faults << ", "
                      << set.unknown_faults << "},";
        continue;
      }
      ++checked;
      EXPECT_EQ(set.vectors.size(), pin->vectors) << label;
      EXPECT_EQ(digest(set.vectors), pin->digest) << label;
      EXPECT_DOUBLE_EQ(set.coverage, pin->coverage) << label;
      EXPECT_EQ(set.redundant_faults, pin->redundant) << label;
      EXPECT_EQ(set.unknown_faults, pin->unknown) << label;
    }
  }
  EXPECT_EQ(checked, pins.size());
}

}  // namespace
}  // namespace kms

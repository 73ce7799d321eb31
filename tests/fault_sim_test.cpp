#include "src/atpg/fault_sim.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "src/atpg/atpg.hpp"
#include "src/atpg/inject.hpp"
#include "src/atpg/redundancy.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/sim/simulator.hpp"
#include "tests/test_networks.hpp"

namespace kms {
namespace {

// ---- reference oracle: whole-order fault simulation --------------------
//
// The straightforward single-fault simulator: one good pass, then for
// each fault a replay of the whole topological order that re-evaluates
// every gate with a faulty fanin (or the faulted branch's sink). The
// event-driven FaultSimulator must return bit-identical masks.

std::uint64_t reference_eval(GateKind kind,
                             const std::vector<std::uint64_t>& in) {
  switch (kind) {
    case GateKind::kConst0:
      return 0;
    case GateKind::kConst1:
      return ~0ull;
    case GateKind::kInput:
      return 0;
    case GateKind::kOutput:
    case GateKind::kBuf:
      return in[0];
    case GateKind::kNot:
      return ~in[0];
    case GateKind::kAnd:
    case GateKind::kNand: {
      std::uint64_t w = ~0ull;
      for (std::uint64_t x : in) w &= x;
      return kind == GateKind::kNand ? ~w : w;
    }
    case GateKind::kOr:
    case GateKind::kNor: {
      std::uint64_t w = 0;
      for (std::uint64_t x : in) w |= x;
      return kind == GateKind::kNor ? ~w : w;
    }
    case GateKind::kXor:
    case GateKind::kXnor: {
      std::uint64_t w = 0;
      for (std::uint64_t x : in) w ^= x;
      return kind == GateKind::kXnor ? ~w : w;
    }
    case GateKind::kMux:
      return (in[0] & in[1]) | (~in[0] & in[2]);
  }
  return 0;
}

std::vector<std::uint64_t> reference_detect_words(
    const Network& net, const std::vector<Fault>& faults,
    const std::vector<std::uint64_t>& pi_words) {
  const std::vector<GateId> order = net.topo_order();
  std::vector<std::uint64_t> good(net.gate_capacity(), 0);
  for (std::size_t i = 0; i < pi_words.size(); ++i)
    good[net.inputs()[i].value()] = pi_words[i];
  std::vector<std::uint64_t> in;
  for (GateId g : order) {
    const Gate& gt = net.gate(g);
    if (gt.kind == GateKind::kInput) continue;
    in.clear();
    for (ConnId c : gt.fanins) in.push_back(good[net.conn(c).from.value()]);
    good[g.value()] = reference_eval(gt.kind, in);
  }
  std::vector<std::uint64_t> result;
  for (const Fault& f : faults) {
    std::vector<std::uint64_t> faulty = good;
    std::vector<bool> dirty(net.gate_capacity(), false);
    const std::uint64_t stuck = f.stuck ? ~0ull : 0;
    if (f.site == Fault::Site::kStem) {
      faulty[f.gate.value()] = stuck;
      dirty[f.gate.value()] = true;
    }
    const GateId branch_sink = f.site == Fault::Site::kBranch
                                   ? net.conn(f.conn).to
                                   : GateId::invalid();
    for (GateId g : order) {
      const Gate& gt = net.gate(g);
      if (gt.kind == GateKind::kInput || is_constant(gt.kind)) continue;
      if (f.site == Fault::Site::kStem && g == f.gate) continue;
      bool touched = g == branch_sink;
      for (ConnId c : gt.fanins) touched = touched || dirty[net.conn(c).from.value()];
      if (!touched) continue;
      in.clear();
      for (ConnId c : gt.fanins)
        in.push_back(f.site == Fault::Site::kBranch && c == f.conn
                         ? stuck
                         : faulty[net.conn(c).from.value()]);
      faulty[g.value()] = reference_eval(gt.kind, in);
      dirty[g.value()] = faulty[g.value()] != good[g.value()];
    }
    std::uint64_t detect = 0;
    for (GateId o : net.outputs())
      detect |= faulty[o.value()] ^ good[o.value()];
    result.push_back(detect);
  }
  return result;
}

/// Every stuck-at fault the simulator can be asked about: stem faults on
/// every live gate (inputs, constants and output markers included) and
/// branch faults on every live connection, fanout one or not.
std::vector<Fault> every_site_fault(const Network& net) {
  std::vector<Fault> faults;
  for (std::uint32_t g = 0; g < net.gate_capacity(); ++g) {
    if (net.gate(GateId{g}).dead) continue;
    for (const bool stuck : {false, true})
      faults.push_back({Fault::Site::kStem, GateId{g}, ConnId::invalid(),
                        stuck});
  }
  for (std::uint32_t c = 0; c < net.conn_capacity(); ++c) {
    if (net.conn(ConnId{c}).dead) continue;
    for (const bool stuck : {false, true})
      faults.push_back({Fault::Site::kBranch, GateId::invalid(), ConnId{c},
                        stuck});
  }
  return faults;
}

/// Compare the event-driven simulator with the reference on every
/// fault site of `net`, over several words from one simulator (so stale
/// scratch state from an earlier word or fault would show).
void expect_matches_reference(const Network& net, std::uint64_t seed) {
  ASSERT_EQ(net.check(), "") << net.name();
  const std::vector<Fault> faults = every_site_fault(net);
  FaultSimulator sim(net);
  Rng rng(seed);
  std::vector<std::vector<std::uint64_t>> word_sets;
  word_sets.emplace_back(net.inputs().size(), 0ull);
  word_sets.emplace_back(net.inputs().size(), ~0ull);
  for (int w = 0; w < 4; ++w) {
    std::vector<std::uint64_t> pi(net.inputs().size());
    for (auto& x : pi) x = rng.next_u64();
    word_sets.push_back(std::move(pi));
  }
  for (const auto& pi : word_sets) {
    const auto got = sim.detect_words(faults, pi);
    const auto want = reference_detect_words(net, faults, pi);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < faults.size(); ++i)
      EXPECT_EQ(got[i], want[i])
          << net.name() << ": " << format_fault(net, faults[i]);
  }
}


TEST(FaultSimTest, EventDrivenMatchesWholeOrderReference) {
  std::uint64_t seed = 1;
  for (const Network& net : test_networks())
    expect_matches_reference(net, seed++);
}

// ---- stored word sets ---------------------------------------------------
//
// detect_stored replays one fault against a word set kept by an earlier
// store_words call. Fresh detect_words calls, which reload the live good
// values, run between the stores and the replays, and each replayed mask
// must equal the one detect_words gives for that set's words.

TEST(FaultSimTest, DetectStoredMatchesDetectWords) {
  std::uint64_t seed = 300;
  for (const Network& net : test_networks()) {
    SCOPED_TRACE(net.name());
    const std::vector<Fault> faults = every_site_fault(net);
    FaultSimulator sim(net);
    Rng rng(seed++);
    auto random_words = [&] {
      std::vector<std::uint64_t> pi(net.inputs().size());
      for (auto& x : pi) x = rng.next_u64();
      return pi;
    };
    std::vector<std::vector<std::uint64_t>> sets;
    sets.emplace_back(net.inputs().size(), 0ull);
    sets.emplace_back(net.inputs().size(), ~0ull);
    for (int k = 0; k < 4; ++k) sets.push_back(random_words());
    for (std::size_t k = 0; k < sets.size(); ++k) {
      ASSERT_EQ(sim.store_words(sets[k]), k);
      sim.detect_words(faults, random_words());
      std::vector<std::vector<std::uint64_t>> want;
      for (std::size_t w = 0; w <= k; ++w)
        want.push_back(sim.detect_words(faults, sets[w]));
      sim.detect_words(faults, random_words());
      for (std::size_t w = 0; w <= k; ++w)
        for (std::size_t i = 0; i < faults.size(); ++i)
          ASSERT_EQ(sim.detect_stored(faults[i], w), want[w][i])
              << "set " << w << " after " << k + 1 << " stores: "
              << format_fault(net, faults[i]);
    }
    EXPECT_EQ(sim.stored_count(), sets.size());
  }
}

// A simulator reset after removal edits must answer as a fresh one on
// the edited network, stored sets included.
TEST(FaultSimTest, ResetAfterEditsEqualsFresh) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  FaultSimulator sim(net);
  Rng rng(301);
  auto random_words = [&] {
    std::vector<std::uint64_t> pi(net.inputs().size());
    for (auto& x : pi) x = rng.next_u64();
    return pi;
  };
  for (std::size_t step = 0; step < 4; ++step) {
    sim.store_words(random_words());
    sim.store_words(random_words());
    const auto faults = collapsed_faults(net);
    apply_redundancy_removal(net, faults[(step * 7 + 3) % faults.size()]);
    simplify(net);
    sim.reset();
    ASSERT_EQ(sim.stored_count(), 0u);
    FaultSimulator fresh(net);
    const std::vector<Fault> sites = every_site_fault(net);
    const auto pi = random_words();
    EXPECT_EQ(sim.detect_words(sites, pi), fresh.detect_words(sites, pi));
    ASSERT_EQ(sim.store_words(pi), 0u);
    ASSERT_EQ(fresh.store_words(pi), 0u);
    for (const Fault& f : sites)
      EXPECT_EQ(sim.detect_stored(f, 0), fresh.detect_stored(f, 0))
          << "step " << step << ": " << format_fault(net, f);
  }
}

/// Which of `faults` `words` sets of 64 random patterns detect, with
/// fault dropping between words: detect_new once per word.
std::vector<bool> random_detections(FaultSimulator& sim,
                                    const std::vector<Fault>& faults,
                                    std::size_t words, Rng& rng,
                                    std::size_t inputs) {
  std::vector<bool> detected(faults.size(), false);
  std::vector<std::uint64_t> pi(inputs);
  for (std::size_t w = 0; w < words; ++w) {
    for (auto& x : pi) x = rng.next_u64();
    sim.detect_new(faults, pi, detected);
  }
  return detected;
}

// ---- reference oracle: the multi-word loop without fault dropping ------
//
// Every word is simulated against the whole fault list and the masks
// ORed. Fault dropping must not change the detections or the rng draws.

std::vector<bool> reference_random_detections(const Network& net,
                                              const std::vector<Fault>& faults,
                                              std::size_t words, Rng& rng) {
  FaultSimulator sim(net);
  std::vector<bool> detected(faults.size(), false);
  std::vector<std::uint64_t> pi(net.inputs().size());
  for (std::size_t w = 0; w < words; ++w) {
    for (auto& x : pi) x = rng.next_u64();
    const auto masks = sim.detect_words(faults, pi);
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (masks[i] != 0) detected[i] = true;
  }
  return detected;
}

TEST(FaultSimTest, DetectNewDroppingMatchesFullListReference) {
  std::uint64_t seed = 7;
  for (const Network& net : test_networks()) {
    const std::vector<Fault> faults = every_site_fault(net);
    FaultSimulator sim(net);  // reused across calls: stale state would show
    for (const std::size_t words : {1, 3, 8}) {
      SCOPED_TRACE(net.name() + " words=" + std::to_string(words));
      Rng got_rng(seed), want_rng(seed);
      ++seed;
      const auto got = random_detections(sim, faults, words, got_rng,
                                         net.inputs().size());
      const auto want =
          reference_random_detections(net, faults, words, want_rng);
      EXPECT_EQ(got, want);
      EXPECT_EQ(got_rng.save_state(), want_rng.save_state());
    }
  }
}

TEST(FaultSimTest, DetectNewSkipsDetectedFaultsAndCreditsFirstPattern) {
  RandomNetworkOptions opts;
  opts.seed = 91;
  opts.gates = 30;
  Network net = random_network(opts);
  const std::vector<Fault> faults = every_site_fault(net);
  FaultSimulator sim(net);
  Rng rng(12);
  std::vector<std::uint64_t> pi(net.inputs().size());
  for (auto& x : pi) x = rng.next_u64();
  const auto masks = sim.detect_words(faults, pi);
  // Pre-mark every other fault; restrict to the low 32 patterns.
  const std::uint64_t patterns = 0xFFFFFFFFull;
  std::vector<bool> detected(faults.size(), false);
  for (std::size_t i = 0; i < faults.size(); i += 2) detected[i] = true;
  const std::vector<bool> before = detected;
  const std::uint64_t first = sim.detect_new(faults, pi, detected, patterns);
  std::uint64_t want_first = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const std::uint64_t m = masks[i] & patterns;
    EXPECT_EQ(detected[i], before[i] || m != 0) << i;
    if (!before[i] && m != 0) want_first |= m & (~m + 1);
  }
  EXPECT_EQ(first, want_first);
  EXPECT_NE(first, 0u);
}

TEST(FaultSimTest, AgreesWithInjectionSimulation) {
  // For each fault and pattern word, the detection mask must equal the
  // brute-force comparison of good and injected circuits.
  RandomNetworkOptions opts;
  opts.seed = 90;
  opts.gates = 25;
  Network net = random_network(opts);
  const auto faults = collapsed_faults(net);
  FaultSimulator sim(net);
  Rng rng(4);
  std::vector<std::uint64_t> words(net.inputs().size());
  for (auto& w : words) w = rng.next_u64();
  const auto masks = sim.detect_words(faults, words);
  ASSERT_EQ(masks.size(), faults.size());

  for (std::size_t i = 0; i < faults.size(); ++i) {
    Network faulty = inject_fault(net, faults[i]);
    Simulator gs(net), fs(faulty);
    gs.run(words);
    fs.run(words);
    std::uint64_t expected = 0;
    for (std::size_t o = 0; o < net.outputs().size(); ++o)
      expected |= gs.output_word(o) ^ fs.output_word(o);
    EXPECT_EQ(masks[i], expected) << format_fault(net, faults[i]);
  }
}

TEST(FaultSimTest, DetectsEasyFaultsQuickly) {
  Network net = ripple_carry_adder(4);
  decompose_to_simple(net);
  const auto faults = collapsed_faults(net);
  FaultSimulator sim(net);
  Rng rng(5);
  const auto detected =
      random_detections(sim, faults, 16, rng, net.inputs().size());
  std::size_t count = 0;
  for (bool d : detected)
    if (d) ++count;
  // Random patterns detect the overwhelming majority in an adder.
  EXPECT_GT(count, faults.size() * 8 / 10);
}

TEST(FaultSimTest, NeverDetectsRedundantFaults) {
  Network net = carry_skip_adder(4, 2);
  decompose_to_simple(net);
  const auto faults = collapsed_faults(net);
  Atpg atpg(net);
  FaultSimulator sim(net);
  Rng rng(6);
  const auto detected =
      random_detections(sim, faults, 32, rng, net.inputs().size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i])
      EXPECT_TRUE(atpg.is_testable(faults[i]))
          << format_fault(net, faults[i]);
  }
}

TEST(FaultSimTest, CoverageOfAtpgTestSetIsComplete) {
  Network net = ripple_carry_adder(3);
  decompose_to_simple(net);
  const auto faults = collapsed_faults(net);
  Atpg atpg(net);
  std::vector<std::vector<bool>> tests;
  for (const Fault& f : faults) {
    auto t = atpg.generate_test(f);
    if (t) tests.push_back(std::move(*t));
  }
  EXPECT_DOUBLE_EQ(fault_coverage(net, faults, tests), 1.0);
}

TEST(FaultSimTest, CoverageZeroWithNoTests) {
  Network net = ripple_carry_adder(2);
  const auto faults = collapsed_faults(net);
  EXPECT_DOUBLE_EQ(fault_coverage(net, faults, {}), 0.0);
}

}  // namespace
}  // namespace kms

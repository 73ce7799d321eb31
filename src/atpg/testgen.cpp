#include "src/atpg/testgen.hpp"

#include <algorithm>

#include "src/atpg/atpg.hpp"
#include "src/atpg/fault_sim.hpp"
#include "src/base/rng.hpp"

namespace kms {

TestSet generate_test_set(const Network& net, const TestGenOptions& opts) {
  TestSet set;
  const auto faults = collapsed_faults(net);
  const std::size_t n_pi = net.inputs().size();
  std::vector<bool> detected(faults.size(), false);
  Rng rng(opts.seed);
  // One simulator serves every phase: the network does not change here.
  FaultSimulator sim(net);

  // Phase 1: random patterns; keep only those that detect a new fault.
  for (std::size_t w = 0; w < opts.random_words; ++w) {
    std::vector<std::uint64_t> words(n_pi);
    for (auto& x : words) x = rng.next_u64();
    const std::uint64_t useful_bits = sim.detect_new(faults, words, detected);
    for (std::size_t k = 0; k < 64; ++k) {
      if (!(useful_bits & (1ull << k))) continue;
      std::vector<bool> v(n_pi);
      for (std::size_t i = 0; i < n_pi; ++i) v[i] = (words[i] >> k) & 1;
      set.vectors.push_back(std::move(v));
    }
  }

  // Phase 2: exact ATPG for the survivors, with fault dropping.
  Atpg atpg(net, opts.governor);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    if (detected[f]) continue;
    auto test = atpg.generate_test(faults[f]);
    if (test.outcome == TestOutcome::kUnknown) {
      // Aborted, not proved redundant: the fault stays unresolved and
      // the coverage figure below honestly reflects the miss.
      ++set.unknown_faults;
      continue;
    }
    if (test.outcome == TestOutcome::kUntestable) {
      ++set.redundant_faults;
      continue;
    }
    detected[f] = true;
    // Drop every other fault the new vector happens to detect.
    sim.detect_tests(faults, {*test}, detected);
    set.vectors.push_back(std::move(*test));
  }
  set.testable_faults = faults.size() - set.redundant_faults;

  // Phase 3: reverse-order compaction — later (ATPG) vectors tend to be
  // the most specific; replaying in reverse keeps them and sheds the
  // now-covered random patterns.
  if (opts.compact && !set.vectors.empty()) {
    std::vector<std::vector<bool>> reversed(set.vectors.rbegin(),
                                            set.vectors.rend());
    // Faults no vector of the set detects can never be covered;
    // pre-mark them.
    std::vector<bool> covered(faults.size(), false);
    sim.detect_tests(faults, reversed, covered);
    covered.flip();
    std::vector<std::vector<bool>> kept;
    for (auto& v : reversed)
      if (sim.detect_tests(faults, {v}, covered)) kept.push_back(std::move(v));
    set.vectors = std::move(kept);
  }

  // Verify the final coverage by fault simulation (never assume).
  std::vector<bool> final_detected(faults.size(), false);
  sim.detect_tests(faults, set.vectors, final_detected);
  const auto count =
      std::count(final_detected.begin(), final_detected.end(), true);
  set.coverage = set.testable_faults == 0
                     ? 1.0
                     : static_cast<double>(count) /
                           static_cast<double>(set.testable_faults);
  return set;
}

}  // namespace kms

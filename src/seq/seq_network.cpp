#include "src/seq/seq_network.hpp"

#include <stdexcept>

#include "src/base/rng.hpp"
#include "src/core/kms.hpp"
#include "src/sim/simulator.hpp"

namespace kms {

SeqNetwork::SeqNetwork(Network comb, std::vector<bool> latch_init)
    : comb_(std::move(comb)), init_(std::move(latch_init)) {
  if (const std::string err = check(); !err.empty())
    throw std::invalid_argument("SeqNetwork: " + err);
}

std::string SeqNetwork::check() const {
  if (comb_.inputs().size() < init_.size())
    return "fewer core inputs than latches";
  if (comb_.outputs().size() < init_.size())
    return "fewer core outputs than latches";
  return comb_.check();
}

std::vector<std::vector<bool>> SeqNetwork::simulate(
    const std::vector<std::vector<bool>>& inputs) const {
  const std::size_t n_pi = num_primary_inputs();
  const std::size_t n_po = num_primary_outputs();
  const std::size_t n_latch = num_latches();
  std::vector<bool> state(init_.begin(), init_.end());
  std::vector<std::vector<bool>> outputs;
  outputs.reserve(inputs.size());
  for (const auto& in : inputs) {
    if (in.size() != n_pi)
      throw std::invalid_argument("simulate: bad input width");
    std::vector<bool> core_in;
    core_in.reserve(n_pi + n_latch);
    core_in.insert(core_in.end(), in.begin(), in.end());
    core_in.insert(core_in.end(), state.begin(), state.end());
    const std::vector<bool> core_out = eval_once(comb_, core_in);
    outputs.emplace_back(core_out.begin(),
                         core_out.begin() + static_cast<long>(n_po));
    for (std::size_t i = 0; i < n_latch; ++i)
      state[i] = core_out[n_po + i];
  }
  return outputs;
}

double SeqNetwork::cycle_time(SensitizationMode mode) const {
  return computed_delay(comb_, mode).delay;
}

SeqKmsResult kms_on_sequential(SeqNetwork& seq, SensitizationMode mode) {
  SeqKmsResult result;
  result.cycle_before = seq.cycle_time(mode);
  KmsOptions opts;
  opts.mode = mode;
  const KmsStats stats = kms_make_irredundant(seq.comb(), opts);
  result.redundancies_removed =
      stats.constants_set + stats.removal.removed;
  result.cycle_after = seq.cycle_time(mode);
  return result;
}

bool random_sequence_equiv(const SeqNetwork& a, const SeqNetwork& b,
                           std::uint64_t seed, std::size_t cycles) {
  if (a.num_primary_inputs() != b.num_primary_inputs() ||
      a.num_primary_outputs() != b.num_primary_outputs())
    return false;
  Rng rng(seed);
  std::vector<std::vector<bool>> stimulus;
  stimulus.reserve(cycles);
  for (std::size_t t = 0; t < cycles; ++t) {
    std::vector<bool> in;
    for (std::size_t i = 0; i < a.num_primary_inputs(); ++i)
      in.push_back(rng.next_bool());
    stimulus.push_back(std::move(in));
  }
  return a.simulate(stimulus) == b.simulate(stimulus);
}

}  // namespace kms

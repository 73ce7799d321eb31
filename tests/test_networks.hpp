// Shared network corpus for the simulation and loop-surgery oracle
// tests: random networks, the example netlists, their decomposed copies
// and copies after removal edits. Including targets define EXAMPLES_DIR.
#pragma once

#include <filesystem>
#include <fstream>
#include <vector>

#include "src/atpg/fault.hpp"
#include "src/atpg/inject.hpp"
#include "src/atpg/redundancy.hpp"
#include "src/gen/adders.hpp"
#include "src/gen/random_logic.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"

namespace kms {

/// Apply the removal surgery for every `stride`-th collapsed fault in
/// turn (untestable or not — only the structure matters here), leaving
/// dangling logic and constant-fed pins. With `tidy`, each edit is
/// followed by constant propagation and a sweep, which tombstones gates
/// and connections.
inline Network edited(const Network& original, std::size_t stride, bool tidy) {
  Network net = original.clone_compact();
  for (std::size_t k = 0; k < 6; ++k) {
    const auto faults = collapsed_faults(net);
    const std::size_t i = (k + 1) * stride;
    if (i >= faults.size()) break;
    apply_redundancy_removal(net, faults[i]);
    if (tidy) {
      simplify(net);
      net.sweep();
    }
  }
  return net;
}

inline std::vector<Network> example_networks() {
  std::vector<Network> nets;
  for (const auto& entry : std::filesystem::directory_iterator(EXAMPLES_DIR)) {
    if (entry.path().extension() != ".blif") continue;
    std::ifstream in(entry.path());
    nets.push_back(read_blif_sequential(in).comb);
  }
  return nets;
}

/// The file's random networks and examples, their decomposed copies,
/// copies after removal edits, and a fully removed carry-skip adder.
inline std::vector<Network> test_networks() {
  std::vector<Network> nets;
  // Undecomposed: XOR/XNOR and MUX pins, multi-input gates.
  nets.push_back(carry_skip_adder(4, 2));
  nets.push_back(ripple_carry_adder(3));
  for (std::uint64_t seed = 90; seed < 96; ++seed) {
    RandomNetworkOptions opts;
    opts.seed = seed;
    opts.gates = 30;
    opts.max_fanin = 4;
    nets.push_back(random_network(opts));
  }
  for (Network& n : example_networks()) nets.push_back(std::move(n));
  // Decomposed copies, and copies after removal edits.
  const std::size_t base = nets.size();
  for (std::size_t i = 0; i < base; ++i) {
    Network simple = nets[i].clone_compact();
    decompose_to_simple(simple);
    nets.push_back(edited(simple, 3, /*tidy=*/false));
    nets.push_back(edited(simple, 5, /*tidy=*/true));
    nets.push_back(std::move(simple));
  }
  // A fully removed carry-skip adder: tombstoned gates and connections
  // from many passes of real removals.
  Network removed = carry_skip_adder(8, 2);
  decompose_to_simple(removed);
  remove_redundancies(removed);
  nets.push_back(std::move(removed));
  return nets;
}

}  // namespace kms

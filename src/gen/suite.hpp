// The MCNC-substitute benchmark suite (DESIGN.md §5).
//
// The paper's Table I runs on nine MCNC benchmark circuits that had been
// optimized for area and then for delay in MIS-II. The original PLA
// files are not available offline, so each entry here is a deterministic
// random PLA with the same input/output/cube shape as its namesake,
// pushed through the same pipeline: cover cleanup -> two-level netlist
// -> strash + balance (area/delay restructuring) -> Shannon-cofactor
// speedup of the late input (the redundancy-introducing timing
// optimization). Names carry an "s" prefix to mark the substitution.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/netlist/network.hpp"

namespace kms {

struct SuiteSpec {
  std::string name;       ///< "s5xp1", ... ("s" = synthetic substitute)
  std::size_t inputs;     ///< PI count of the MCNC namesake
  std::size_t outputs;    ///< PO count of the MCNC namesake
  std::size_t cubes;      ///< cover size in the same ballpark
  std::uint64_t seed;     ///< generator seed (fixed, reproducible)
  double late_arrival;    ///< arrival time of the last input (a late
                          ///< signal for the speedup pass to chase)
};

/// The nine Table-I substitute specs.
const std::vector<SuiteSpec>& benchmark_suite();

/// Build one suite circuit. With `delay_optimized` the Shannon speedup
/// pass is applied (matching "optimized for delay using the timing
/// optimization commands in MIS-II"); without it the circuit is the
/// area-optimized baseline.
Network build_suite_circuit(const SuiteSpec& spec,
                            bool delay_optimized = true);

/// Look up a spec by name; throws std::out_of_range if unknown.
const SuiteSpec& suite_spec(const std::string& name);

/// A datapath of `copies` disjoint instances of `block` side by side in
/// one network, PI/PO names suffixed "_b<i>". The copies share no gates
/// or connections, so their longest paths tie exactly — a realistic
/// stand-in for a design with several identical arithmetic slices.
Network replicate_blocks(const Network& block, std::size_t copies);

}  // namespace kms

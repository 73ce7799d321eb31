// Levelized traversal utilities.
//
// The static analysis passes (dominators, implication learning, SCOAP)
// all walk the network in dependency order; gate levels make those walks
// deterministic and give the reports a depth axis. Level 0 is a source
// (primary input or constant); a logic gate's level is one more than the
// maximum level of its live fanin sources.
#pragma once

#include <cstdint>
#include <vector>

#include "src/netlist/network.hpp"

namespace kms::analysis {

/// Level per gate id (index = GateId::value()). Dead gates get 0.
/// Output markers take their driver's level (they add no logic depth).
std::vector<std::uint32_t> gate_levels(const Network& net);

}  // namespace kms::analysis

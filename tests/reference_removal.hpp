// Reference redundancy removal, the differential oracle for
// remove_redundancies: the literal reading of the paper's "the
// redundancies are removed one at a time, and the remaining circuit
// redundancies must be recomputed after each removal". Each pass scans
// the collapsed fault list forward with a fresh Atpg, removes the first
// untestable fault and starts over; the first pass that finds none
// ends the run. No simulation, no cache, no threads —
// so any fault the production engine skips or removes differently
// shows up as a different network.
#pragma once

#include <cstddef>

#include "src/atpg/atpg.hpp"
#include "src/atpg/fault.hpp"
#include "src/atpg/redundancy.hpp"
#include "src/netlist/network.hpp"
#include "src/netlist/transform.hpp"

namespace kms {

struct ReferenceRemoval {
  std::size_t removed = 0;
  std::size_t sat_queries = 0;  ///< solver calls (AtpgStats::sat_solves)
};

inline ReferenceRemoval reference_remove_redundancies(Network& net) {
  ReferenceRemoval out;
  for (bool removed_one = true; removed_one;) {
    removed_one = false;
    Atpg atpg(net);
    for (const Fault& f : collapsed_faults(net)) {
      if (atpg.generate_test(f).outcome != TestOutcome::kUntestable) continue;
      apply_redundancy_removal(net, f);
      simplify(net);
      ++out.removed;
      removed_one = true;
      break;
    }
    out.sat_queries += atpg.stats().sat_solves;
  }
  return out;
}

}  // namespace kms

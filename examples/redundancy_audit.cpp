// Redundancy audit: load a BLIF circuit (or a generated default), run
// fault enumeration + fault simulation + exact SAT ATPG, and report the
// circuit's testability profile — the workflow a test engineer would run
// before deciding whether redundancy removal is safe for timing.
//
//   $ ./redundancy_audit [circuit.blif]
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/atpg/atpg.hpp"
#include "src/atpg/fault_sim.hpp"
#include "src/base/rng.hpp"
#include "src/gen/adders.hpp"
#include "src/netlist/blif.hpp"
#include "src/netlist/transform.hpp"
#include "src/timing/sensitize.hpp"
#include "src/timing/sta.hpp"

using namespace kms;

int main(int argc, char** argv) {
  Network net = [&] {
    if (argc > 1) return read_blif_file(argv[1]);
    Network n = carry_skip_adder(8, 2);
    decompose_to_simple(n);
    apply_unit_delays(n);
    return n;
  }();
  std::printf("circuit: %s\n", net.name().c_str());
  std::printf("  inputs/outputs : %zu / %zu\n", net.inputs().size(),
              net.outputs().size());
  std::printf("  gates          : %zu (depth %zu, max fanout %zu)\n",
              net.count_gates(), net.depth(), net.max_fanout());
  std::printf("  longest path   : %.2f\n", topological_delay(net));
  const DelayReport dr = computed_delay(net, SensitizationMode::kStatic);
  std::printf("  computed delay : %.2f (%zu paths examined)\n", dr.delay,
              dr.paths_examined);

  const auto faults = collapsed_faults(net);
  std::printf("\nfault universe   : %zu collapsed faults (%zu raw)\n",
              faults.size(), enumerate_faults(net).size());

  // Phase 1: random-pattern fault simulation, 16 words of 64 patterns,
  // dropping each fault at its first detection.
  FaultSimulator sim(net);
  Rng rng(1);
  std::vector<bool> detected(faults.size(), false);
  std::vector<std::uint64_t> pi(net.inputs().size());
  for (int w = 0; w < 16; ++w) {
    for (auto& x : pi) x = rng.next_u64();
    sim.detect_new(faults, pi, detected);
  }
  std::size_t easy = 0;
  for (bool d : detected)
    if (d) ++easy;
  std::printf("  1024 random patterns detect %zu (%.1f%%)\n", easy,
              100.0 * static_cast<double>(easy) /
                  static_cast<double>(faults.size()));

  // Phase 2: exact ATPG on the survivors.
  Atpg atpg(net);
  std::size_t hard = 0, redundant = 0;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (detected[i]) continue;
    if (atpg.is_testable(faults[i])) {
      ++hard;
    } else {
      ++redundant;
      std::printf("  REDUNDANT: %s\n",
                  format_fault(net, faults[i]).c_str());
    }
  }
  std::printf("  SAT ATPG: %zu hard-but-testable, %zu redundant\n", hard,
              redundant);
  if (redundant == 0) {
    std::printf("\ncircuit is fully single-stuck-at testable.\n");
  } else {
    std::printf(
        "\ncircuit is NOT fully testable; if any redundancy guards a "
        "false long path,\nplain removal will slow the circuit — use "
        "kms_make_irredundant (see quickstart).\n");
  }
  return 0;
}

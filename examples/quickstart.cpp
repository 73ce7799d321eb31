// Quickstart: build a redundant circuit, run the KMS algorithm, verify.
//
//   $ ./quickstart
//
// Builds the 8-bit / 4-bit-block carry-skip adder of the paper's Table I,
// shows that performance optimization left it untestable, runs
// kms_make_irredundant, and prints the before/after summary.
#include <cstdio>

#include "src/atpg/atpg.hpp"
#include "src/cnf/encoder.hpp"
#include "src/core/kms.hpp"
#include "src/gen/adders.hpp"
#include "src/netlist/transform.hpp"
#include "src/timing/sensitize.hpp"

int main() {
  using namespace kms;

  // 1. A circuit whose speed depends on redundancy: the carry-skip adder.
  Network net = carry_skip_adder(8, 4);
  decompose_to_simple(net);  // the algorithm wants simple gates
  apply_unit_delays(net);    // Table I's unit gate-delay model
  Network original = net;

  std::printf("csa 8.4 (carry-skip adder, 8 bits, 4-bit blocks)\n");
  std::printf("  gates                 : %zu\n", net.count_gates());
  std::printf("  redundant faults      : %zu\n", count_redundancies(net));
  const DelayReport before = computed_delay(net, SensitizationMode::kStatic);
  std::printf("  computed delay        : %.0f gate delays\n", before.delay);

  // 2. Make it irredundant without losing speed.
  KmsOptions opts;
  opts.mode = SensitizationMode::kStatic;
  const KmsStats stats = kms_make_irredundant(net, opts);

  // 3. Inspect the result.
  std::printf("\nafter kms_make_irredundant:\n");
  std::printf("  gates                 : %zu\n", net.count_gates());
  std::printf("  redundant faults      : %zu\n", count_redundancies(net));
  const DelayReport after = computed_delay(net, SensitizationMode::kStatic);
  std::printf("  computed delay        : %.0f gate delays\n", after.delay);
  std::printf("  loop iterations       : %zu\n", stats.iterations);
  std::printf("  gates duplicated      : %zu\n", stats.duplicated_gates);
  std::printf("  residual removals     : %zu\n", stats.removal.removed);
  std::printf("  still equivalent      : %s\n",
              sat_equivalent(original, net) ? "yes" : "NO (bug!)");
  return 0;
}

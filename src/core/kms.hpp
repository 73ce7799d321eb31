// The KMS algorithm (Keutzer–Malik–Saldanha): redundancy removal with no
// increase in delay — Fig. 3 of the paper.
//
//   while (all longest paths are not statically sensitizable / viable) {
//     choose a longest path P
//     n := the gate in P closest to the output with fanout > 1
//     if n exists: duplicate the gates of P up to n (and their fanin
//       connections); move P's fanout edge of n to the duplicate n'
//     if P' is not statically sensitizable:
//       set the first edge of P' to a constant; propagate it
//   }
//   remove the remaining redundancies in any order
//
// The loop maintains the invariant (Theorems 7.1 / 7.2) that the
// network's computed delay never increases; once some longest path is
// sensitizable it is the critical path, redundancy removal can only
// delete paths, and the final ATPG-based phase is unconditionally safe.
#pragma once

#include <string>
#include <vector>

#include "src/atpg/redundancy.hpp"
#include "src/core/context.hpp"
#include "src/core/counters.hpp"
#include "src/netlist/network.hpp"
#include "src/netlist/transform.hpp"
#include "src/timing/sensitize.hpp"

namespace kms {

struct KmsResumeState;

struct KmsOptions {
  /// Condition used in the while-loop test (Section VI: the user may
  /// choose static sensitization or viability; the delay proofs hold
  /// for both, viability merely avoids some unnecessary duplications).
  SensitizationMode mode = SensitizationMode::kStatic;

  /// Safety cap on loop transforms; a run that reaches it stops
  /// transforming (loop_exit "iteration-cap") and falls through to
  /// plain removal.
  std::size_t max_iterations = 100000;

  /// Options for the final conventional redundancy-removal phase.
  RedundancyRemovalOptions removal;

  /// Run the final removal phase (disable to study the loop alone).
  bool remove_remaining = true;

  /// Execution context of the run, shared by every phase:
  ///  * governor — shared wall-clock deadline, global conflict/
  ///    propagation budgets and cooperative interrupt across every SAT
  ///    solve. On exhaustion each phase degrades in its conservative
  ///    direction — an undecided path counts as sensitizable (the loop
  ///    exits into plain removal; stopping at any iteration is safe
  ///    because Theorems 7.1/7.2 are per-iteration invariants), and an
  ///    undecided fault is kept, never removed. The result is always an
  ///    equivalent network.
  ///  * session — every transformation (duplication, constant
  ///    assertion, removal) is journalled, and every UNSAT
  ///    verdict that licenses one carries a DRAT certificate. A
  ///    degraded run finalizes the journal as partial. See src/proof/.
  ///  * check_invariants — run the netlist invariant checker
  ///    (src/check/) between loop phases, and audit the incremental
  ///    timing engine's tables against a from-scratch recompute after
  ///    every repair (rules NL024–NL028); throw CheckFailure on a
  ///    violation. Costs a full timing pass per iteration. Always on in
  ///    a build with the KMS_CHECK_INVARIANTS option.
  ///  * jobs — worker count for the final removal phase (the loop
  ///    phases are sequential); removal.context.jobs is overridden by
  ///    this so one knob configures the whole run.
  RunContext context;

  /// Resume a crashed run from a restored checkpoint (the network must
  /// already be replayed to that state; see src/recover/session.hpp).
  /// Null (the default) runs from scratch.
  const KmsResumeState* resume = nullptr;
};

/// The loop group of the run's counters (src/core/counters.hpp), with
/// the removal group of the final phase (zero-valued when
/// remove_remaining was off).
struct KmsStats {
  KMS_LOOP_COUNTERS(KMS_COUNTER_DECL)
  RedundancyRemovalResult removal;
};

/// Committed mid-run state of a previous kms_make_irredundant call, as
/// reconstructed by the resume path (src/recover/session.cpp): the
/// caller has already replayed the journal prefix onto the network and
/// hands the engine the restored counters plus the removal-phase rng
/// state. The run continues from here and produces a final result
/// bit-identical to the uninterrupted run.
struct KmsResumeState {
  std::string phase;         ///< "loop" | "removal"
  std::uint64_t cursor = 0;  ///< loop iterations done | removal passes done
  KmsStats stats;            ///< counters as of the checkpoint
  std::string rng_state;     ///< removal scan rng (Rng::save_state); "" = fresh
};

/// Make `net` fully single-stuck-at testable without increasing its
/// computed delay. `net` must consist of simple gates (Section VI; see
/// decompose_to_simple): throws std::invalid_argument naming the first
/// XOR/XNOR/MUX gate otherwise.
KmsStats kms_make_irredundant(Network& net, const KmsOptions& opts = {});

/// What one structural loop-iteration replay changed, for cross-checking
/// against the journalled kDuplicate/kConstant steps.
struct KmsLoopTransform {
  std::uint64_t duplicated = 0;    ///< gates copied (0 = path had no
                                   ///< multi-fanout gate)
  std::uint64_t constant_conn = 0; ///< conn id of the asserted first edge
};

/// Resume replay: re-select the current longest path exactly as
/// kms_make_irredundant would and apply the duplicate+constant transform
/// — no SAT (the journal already recorded the unsensitizability verdict)
/// and no journaling. Throws std::runtime_error when no IO-path exists
/// (a replay/journal mismatch).
KmsLoopTransform kms_replay_loop_transform(Network& net);

}  // namespace kms

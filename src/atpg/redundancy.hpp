// ATPG-driven redundancy removal (the conventional procedure, per [22]).
//
// Repeatedly finds an untestable stuck-at fault, asserts the stuck value
// at the fault site (which cannot change the circuit function — that is
// what untestable means), propagates constants, sweeps, and recomputes
// the remaining redundancies, exactly as the paper prescribes: "The
// redundancies are removed one at a time, and the remaining circuit
// redundancies must be recomputed after each removal."
//
// This is both (a) the final phase of the KMS algorithm, run once some
// longest path is sensitizable, and (b) the *naive* baseline whose
// delay behaviour on carry-skip adders motivates the whole paper: run
// on a carry-skip adder directly, it deletes the skip chain and the
// circuit slows down to ripple speed.
//
// One engine runs every removal. Three mechanisms avoid SAT queries
// whose outcome is already known:
//  1. per-ticket replay of stored word sets: a pass classifies a fault
//     only when a lane's ticket reaches it, first against the pass's
//     random words, then a run-wide store of exact SAT witnesses
//     (packed 64 to a word), then the witnesses of the lane's earlier
//     SAT verdicts in the pass, each packed with 63 random
//     perturbations. A pass needs verdicts only up to its first
//     untestable fault, so faults behind it are never simulated;
//  2. a cross-pass fault-status cache: testable verdicts (from SAT or
//     a replay) persist across removal passes keyed by fault identity
//     (GateId/ConnId are stable). The coordinator fills it at each pass
//     barrier; lanes never touch it;
//  3. cone-scoped invalidation: a removal invalidates only cached
//     verdicts whose fault region intersects the edited gates, which
//     the network records in a TransformTrace while the commit edits
//     it (every severed edge included, the sweep's too, so the
//     traversal sees connectivity that the edit itself cut).
// Every skip is backed by positive evidence of testability, never by
// an assumption of untestability, so the engine removes exactly the
// faults a plain scan of Atpg::generate_test in the same order would,
// one at a time with a recompute after each (tests/ keeps that scan as
// the differential oracle).
//
// Each pass classifies faults on resolve_jobs(context.jobs) lanes of a
// worker pool; with one lane the pool runs inline on the caller and
// spawns no thread. Lanes speculatively classify faults (each with a
// private Atpg, SAT solver and cone encoding) against the frozen
// network while the coordinator holds all edits; at the pass barrier
// the coordinator commits the *scan-order-first* untestable verdict,
// re-queues every speculative verdict whose fault region intersects
// the committed edit, and recomputes the fault list. Because SAT
// verdicts are exact and skips only ever mark genuinely testable
// faults, the removed-fault set — and therefore the final network — is
// bit-identical at any lane count. See DESIGN.md §12 for the
// determinism argument.
#pragma once

#include <cstdint>
#include <string>

#include "src/atpg/atpg.hpp"
#include "src/atpg/fault.hpp"
#include "src/base/governor.hpp"
#include "src/core/context.hpp"
#include "src/core/counters.hpp"
#include "src/netlist/network.hpp"
#include "src/netlist/transform.hpp"

namespace kms {

namespace proof {
class ProofSession;
}  // namespace proof

/// Scan order for the removal loop. The paper: "the remaining
/// redundancies may be removed in any order without increasing the
/// delay of the circuit" — the policies exist to demonstrate exactly
/// that (see bench_removal_order).
enum class RemovalOrder { kForward, kReverse, kRandom };

struct RemovalResume;

struct RedundancyRemovalOptions {
  RemovalOrder order = RemovalOrder::kForward;
  std::uint64_t seed = 0x5EEDull;

  /// Execution context of the run: resource governor (a fault whose
  /// ATPG query it stops is conservatively kept — kUnknown is never a
  /// deletion licence — and the loop stops on exhaustion; a pass polls
  /// it before drawing each random word), proof session (every
  /// untestable verdict carries a DRAT certificate and every removal is
  /// journalled citing it, in commit order; witness drops are not
  /// journalled, since at jobs > 1 they depend on worker timing; an
  /// aborted run finalizes the journal as partial), and the worker count:
  /// fault classification runs on resolve_jobs(context.jobs) lanes (0 =
  /// hardware concurrency) with the deterministic commit protocol, whose
  /// removed-fault set is bit-identical at any lane count.
  RunContext context;

  /// Resume a crashed run from a committed pass boundary (the network
  /// must already be replayed to that state; see src/recover/). Null
  /// (the default) starts from scratch.
  const RemovalResume* resume = nullptr;
};

/// The removal group of the run's counters (src/core/counters.hpp),
/// with the ATPG group of every query the run made. Each lane counts
/// into its own instance and the coordinator merges them at the pass
/// barrier, so no lane writes shared state.
struct RedundancyRemovalResult {
  KMS_REMOVAL_COUNTERS(KMS_COUNTER_DECL)
  AtpgStats atpg;

  /// Fold `other` into this by each counter's merge rule.
  void merge(const RedundancyRemovalResult& other) {
    KMS_REMOVAL_COUNTERS(KMS_COUNTER_MERGE)
    atpg.accumulate(other.atpg);
  }
};

/// Pass-boundary state of a crashed removal run, as restored by the
/// resume path: the committed counters plus the serialized scan rng.
/// The engine picks up at the next pass with an empty fault cache and
/// witness store; since every skip they license is backed by positive
/// testability evidence and the rng stream resumes exactly where it
/// stopped, the continued run removes the identical fault sequence at
/// any job count.
struct RemovalResume {
  RedundancyRemovalResult base;  ///< counters as of the committed pass
  std::string rng_state;         ///< Rng::save_state() at the boundary
};

/// Remove every single stuck-at redundancy from `net` (in first-found
/// order). On return the network is fully single-stuck-at testable —
/// unless a governor stopped the run early (result.aborted), in which
/// case the network is a correct partial result: every removal so far
/// was individually proved, so function is preserved regardless.
/// Throws std::invalid_argument naming the first MUX, if any, before
/// any edit (decompose_to_simple first).
RedundancyRemovalResult remove_redundancies(
    Network& net, const RedundancyRemovalOptions& opts = {});

/// Assert the stuck value at one untestable fault's site. The caller
/// must know the fault is untestable; the function only rewires.
void apply_redundancy_removal(Network& net, const Fault& fault);

}  // namespace kms

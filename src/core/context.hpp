// RunContext — the execution context of one bounded pipeline run.
//
// Before this header existed the public API threaded three orthogonal
// side-channels (the resource governor, the proof session and the
// invariant-check flag) as raw fields through KmsOptions,
// RedundancyRemovalOptions and Atpg's constructor, and every new
// cross-cutting concern meant touching all three again. Parallelism
// forces the execution context to be explicit anyway — a worker needs
// to know which governor to poll, which proof sink its certificates
// eventually serialize into, and how many siblings it has — so the
// bundle is now one value type handed through the whole stack:
//
//   RunContext ctx;
//   ctx.governor = &governor;      // shared deadline / budgets / SIGINT
//   ctx.session = &session;        // DRAT certificates + journal
//   ctx.check_invariants = true;   // src/check/ phase checkpoints
//   ctx.jobs = 0;                  // 0 = one worker per hardware thread
//   KmsOptions opts;
//   opts.context = ctx;
//
// Header-only on purpose: lower layers (src/atpg/) accept a
// `const RunContext&` without linking against kms_core.
#pragma once

#include <cstdint>
#include <thread>

namespace kms {

class ResourceGovernor;
class Rng;
class Network;
struct KmsStats;
struct RedundancyRemovalResult;

namespace proof {
class ProofSession;
}  // namespace proof

namespace recover {

/// One committed, resumable state of the pipeline, announced to the
/// durability layer (src/recover/) at the deterministic points of the
/// PR-5 commit protocol: the end of a KMS loop iteration, the end of a
/// removal pass, and the phase boundaries between them. Never
/// mid-speculation — the sink is invoked only on the coordinator
/// thread, after the pass barrier, while no lane runs.
struct CommitPoint {
  const Network* net = nullptr;
  const char* phase = "";     ///< "loop" | "removal"
  std::uint64_t cursor = 0;   ///< loop iterations done | removal passes done
  /// Removal-phase scan rng; null in the loop phase (which draws no
  /// randomness). The sink serializes it only when it actually takes a
  /// checkpoint.
  const Rng* rng = nullptr;
  const KmsStats* kms = nullptr;  ///< loop/boundary stats, if at that level
  const RedundancyRemovalResult* removal = nullptr;  ///< removal stats
};

/// Durability hook the engines drive. commit() marks a committed unit
/// of work (the sink decides whether to spend a full checkpoint on it —
/// the --checkpoint-every cadence); checkpoint() forces one (phase
/// boundaries). Both are fsync barriers: when they return, the
/// announced state is durable.
class CommitSink {
 public:
  virtual ~CommitSink() = default;
  virtual void commit(const CommitPoint& point) = 0;
  virtual void checkpoint(const CommitPoint& point) = 0;
};

}  // namespace recover

struct RunContext {
  /// Shared wall-clock deadline, global conflict/propagation budgets and
  /// cooperative interrupt for every SAT solve of the run. All its
  /// methods are thread-safe; one governor spans all workers.
  ResourceGovernor* governor = nullptr;

  /// Proof session: every UNSAT verdict that licenses a transform
  /// carries a DRAT certificate and every transform is journalled. The
  /// session itself is not thread-safe — parallel engines capture
  /// certificates per worker and serialize them into the session in
  /// commit order (see src/atpg/redundancy.cpp).
  proof::ProofSession* session = nullptr;

  /// Run the netlist invariant checker between pipeline phases and
  /// throw CheckFailure on a violation.
  bool check_invariants = false;

  /// Crash-safety hook: when set, the engines announce every committed
  /// state (loop iteration / removal pass / phase boundary) so the
  /// durability layer can journal and checkpoint it. Coordinator-thread
  /// only; null means no persistence.
  recover::CommitSink* sink = nullptr;

  /// Lane count for fault-level parallel phases. 1 (the default) runs
  /// one lane inline on the caller; 0 means one lane per hardware
  /// thread; N > 1 pins the count. Results never depend on it.
  unsigned jobs = 1;

  /// `jobs` with 0 resolved to the hardware concurrency (and a paranoid
  /// floor of 1 when the runtime reports nothing).
  unsigned effective_jobs() const {
    if (jobs != 0) return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

};

}  // namespace kms

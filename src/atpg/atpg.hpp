// SAT-based automatic test pattern generation.
//
// Testability of a stuck-at fault is decided exactly with a
// good-circuit / faulty-cone dual encoding (the Boolean-satisfiability
// formulation of ATPG): the fault's output cone is duplicated with the
// fault injected, the good and faulty values of every primary output in
// the cone are XORed, and the query asks for an input assignment that
// activates the fault and makes at least one output differ. UNSAT means
// the fault is untestable — i.e. the circuit is redundant at that site
// (Section I, footnote 1 of the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/atpg/fault.hpp"
#include "src/base/governor.hpp"
#include "src/cnf/encoder.hpp"
#include "src/core/counters.hpp"
#include "src/core/verdict.hpp"
#include "src/netlist/network.hpp"
#include "src/proof/drat.hpp"
#include "src/sat/solver.hpp"

namespace kms {

/// The ATPG group of the run's counters (src/core/counters.hpp).
struct AtpgStats {
  KMS_ATPG_COUNTERS(KMS_COUNTER_DECL)

  /// Fold `other` into this by each counter's merge rule.
  void accumulate(const AtpgStats& other) {
    KMS_ATPG_COUNTERS(KMS_COUNTER_MERGE)
  }
};

// TestOutcome lives in src/core/verdict.hpp (included above) together
// with the one mapping between the library's three-valued domains.

/// Result of one test-generation query. Converts like the optional it
/// carries ("a test vector exists") so exact-mode callers read
/// naturally; anything that *deletes* hardware must branch on `outcome`
/// and act only on kUntestable.
struct TestResult {
  TestOutcome outcome = TestOutcome::kUnknown;
  std::optional<std::vector<bool>> vector;  ///< set iff kTestable
  /// Under proof capture (Atpg::set_proof_capture), a kUntestable
  /// verdict carries its DRAT certificate here: whether the verdict is
  /// ever journalled is the caller's commit decision, made later and in
  /// canonical order. Null otherwise.
  std::shared_ptr<proof::DratCertificate> certificate;

  bool has_value() const { return vector.has_value(); }
  explicit operator bool() const { return vector.has_value(); }
  std::vector<bool>& operator*() { return *vector; }
  const std::vector<bool>& operator*() const { return *vector; }
};

class Atpg {
 public:
  /// The network must stay structurally unchanged while tests are being
  /// generated (take a fresh Atpg after every network edit). The
  /// governor (optional) bounds every SAT solve; exhaustion yields
  /// kUnknown. One Atpg is single-threaded; the removal engine builds
  /// one per lane.
  explicit Atpg(const Network& net, ResourceGovernor* governor = nullptr);
  // The encoding refers to the owned solver.
  Atpg(const Atpg&) = delete;
  Atpg& operator=(const Atpg&) = delete;

  /// Proof-capture mode: generate_test records each kUntestable
  /// verdict's DRAT certificate into TestResult::certificate and
  /// journals nothing — the caller registers and journals only the
  /// verdicts it commits, in commit order. The structural shortcut is
  /// bypassed so every untestable verdict is certifiable, and a kUnsat
  /// with no extractable certificate degrades to kUnknown rather than
  /// licensing an unproved deletion.
  void set_proof_capture(bool on) { capture_ = on; }

  /// Decide testability of the fault: kTestable with a test vector (PI
  /// assignment, in net.inputs() order), kUntestable (the fault site is
  /// redundant), or kUnknown if the governor stopped the solve first.
  TestResult generate_test(const Fault& fault);

  /// True iff a test was found. Note the asymmetry under governance:
  /// false covers both kUntestable and kUnknown — never delete on it.
  bool is_testable(const Fault& fault) {
    return generate_test(fault).outcome == TestOutcome::kTestable;
  }

  const AtpgStats& stats() const { return stats_; }

 private:
  /// Stamp `cone_[g] = stamp_` for the forward closure of the fault
  /// site and collect the primary outputs it reaches.
  void mark_fault_cone(const Fault& fault);
  /// Collect into `support_`, in topological order, the transitive fanin
  /// of the stamped cone's outputs plus `extra_root` — the fanin-closed
  /// encoding list.
  void collect_support(GateId extra_root);

  const Network& net_;
  ResourceGovernor* governor_ = nullptr;
  bool capture_ = false;  ///< see set_proof_capture
  AtpgStats stats_;

  // Per-query state, kept across queries and reset instead of rebuilt:
  // a removal pass issues thousands of small queries against the same
  // network, each on the storage of the last. The solver is reset per
  // query, the scratch by stamp comparison or clear(); per-gate tables
  // grow (never shrink) to gate_capacity(). The network is frozen for
  // this object's lifetime, so its topological ranks are computed once,
  // at the first solve.
  sat::Solver solver_;
  proof::DratTrace trace_;                 ///< attached under capture_
  CircuitEncoding good_;                   ///< good-circuit support
  std::vector<std::uint32_t> topo_rank_;   ///< position in topo_order()
  std::uint32_t stamp_ = 0;
  std::vector<std::uint32_t> cone_;        ///< stamp: gate in fault cone
  std::vector<std::uint32_t> in_support_;  ///< stamp: gate in support_
  std::vector<GateId> support_;            ///< encoding list, topological
  std::vector<sat::Var> faulty_;           ///< faulty-copy var per gate
  std::vector<GateId> stack_;              ///< DFS worklist
  std::vector<GateId> cone_outputs_;       ///< primary outputs in the cone
  std::vector<sat::Lit> in_;               ///< one faulty gate's fanins
  std::vector<sat::Lit> clause_;           ///< encode_gate scratch
  std::vector<sat::Lit> diffs_;            ///< detection clause
};

/// Count of *proved* untestable collapsed faults (the "No. Red." column
/// of Table I).
std::size_t count_redundancies(const Network& net);

}  // namespace kms

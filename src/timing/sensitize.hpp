// Path sensitization tests (Definitions 4.11 and 5.1).
//
// Both conditions are decided with one incremental SAT query per path on
// a Tseitin encoding of the network (or, for a single path, of the fanin
// closure of the side inputs it constrains):
//
//  * Static sensitization: assume every side-input of every gate along
//    the path takes its noncontrolling value; SAT iff some input cube
//    realizes those values.
//  * Viability (floating-mode relaxation): only *early* side-inputs —
//    those whose static arrival time is strictly earlier than the event
//    time along the path — are constrained; late side-inputs are
//    smoothed out exactly as in Section V.1. This is a superset of
//    static sensitization (the containment the paper's correctness
//    arguments use) and an upper-bound delay estimate like true
//    viability.
//
// XOR/XNOR gates along a path never block an event, so they contribute
// no constraints; MUX gates must be decomposed first (Section VI).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/cnf/encoder.hpp"
#include "src/netlist/network.hpp"
#include "src/timing/path.hpp"

namespace kms {

namespace proof {
class DratTrace;
struct DratCertificate;
}  // namespace proof

enum class SensitizationMode { kStatic, kViability };

/// Three-valued outcome of a sensitization test. Converts like the
/// optional witness it carries ("proved sensitizable, here is the
/// cube"), so exact-mode callers read naturally; resource-aware callers
/// branch on `verdict` — kUnknown means the solver was stopped by the
/// governor and the path must conservatively be treated as sensitizable
/// (never as a license to transform).
struct SensitizeResult {
  sat::Result verdict = sat::Result::kUnknown;
  std::optional<std::vector<bool>> witness;  ///< set iff verdict == kSat
  /// In capture mode (see the Sensitizer constructor): the DRAT
  /// certificate backing a kUnsat verdict. The KMS loop registers it
  /// with its proof session and journals it only once the verdict
  /// licenses a transform.
  /// Certificates are self-contained (formula + assumptions + steps),
  /// so one captured against an older network state still verifies
  /// standalone when cited later.
  std::shared_ptr<proof::DratCertificate> certificate;

  bool has_value() const { return witness.has_value(); }
  explicit operator bool() const { return witness.has_value(); }
  const std::vector<bool>& operator*() const { return *witness; }
};

/// Precomputed timing tables a caller that already maintains them (the
/// KMS loop via IncrementalSta) hands to the sensitization layer so it
/// skips its own full passes. Both pointers are optional and must be
/// bit-identical to what the callee would compute from scratch — the
/// incremental engine guarantees this, and TimingChecker audits it — so
/// seeding never changes a verdict, a witness, or an enumeration order.
struct StaSeed {
  const std::vector<double>* arrival = nullptr;
  const std::vector<double>* suffix = nullptr;
};

/// Thread-compatibility: a Sensitizer owns its solver, encoding and
/// proof trace outright and reads the network const; distinct instances
/// over the same (un-mutated) network may run concurrently without
/// synchronization. A single instance is not thread-safe. The shared
/// ResourceGovernor is thread-safe.
class Sensitizer {
 public:
  /// `arrival_seed`, if non-null, supplies the arrival table (used by
  /// viability smoothing) instead of a fresh compute_arrival pass.
  /// With `capture` set, every kUnsat verdict from check() carries its
  /// DRAT certificate in SensitizeResult::certificate (mirrors
  /// Atpg::set_proof_capture); a kUnsat that fails to certify degrades
  /// to kUnknown. The caller registers and journals the certificate.
  /// This constructor encodes the whole network, so any path may be
  /// checked; the branch-and-bound search in computed_delay() needs that.
  Sensitizer(const Network& net, SensitizationMode mode,
             ResourceGovernor* governor = nullptr,
             const std::vector<double>* arrival_seed = nullptr,
             bool capture = false);

  /// Path-scoped: retarget(`path`) on an empty sensitizer. Only `path`
  /// may be checked. Other parameters as above.
  Sensitizer(const Network& net, SensitizationMode mode, const Path& path,
             ResourceGovernor* governor = nullptr,
             const std::vector<double>* arrival_seed = nullptr,
             bool capture = false);
  ~Sensitizer();

  /// Decide the condition for `path`: kSat with a witnessing primary
  /// input assignment (in net.inputs() order), kUnsat, or kUnknown if
  /// the attached governor stopped the solve first.
  SensitizeResult check(const Path& path);

  /// Append the side-input constraints imposed by entering gate `g`
  /// through connection `entering` when the event reaches the gate's
  /// input at `event_time`. Building block for both check() and the
  /// branch-and-bound longest-sensitizable-path search.
  void side_constraints(GateId g, ConnId entering, double event_time,
                        std::vector<sat::Lit>* out) const;

  /// Solve under an explicit assumption set (exposed for the search).
  /// Three-valued; kUnknown when the governor stopped the solve.
  sat::Result solve(const std::vector<sat::Lit>& assumptions);

  /// Convenience: solve() == kSat. A kUnknown maps to false here but is
  /// remembered in aborted() — callers pruning on "not satisfiable"
  /// must consult it before trusting the pruned result.
  bool satisfiable(const std::vector<sat::Lit>& assumptions);
  std::vector<bool> model_inputs() const { return enc_->model_inputs(); }

  /// Number of SAT queries issued so far.
  std::size_t queries() const { return queries_; }

  /// True once any solve ended kUnknown (resource exhaustion).
  bool aborted() const { return aborted_; }

  SensitizationMode mode() const { return mode_; }

  /// Re-encode for `path` on the network as it is now, as a path-scoped
  /// sensitizer constructed with this one's parameters would: only the
  /// fanin closure of the side inputs check(`path`) constrains under the
  /// mode and the arrival table, in DFS post-order from those side
  /// inputs. Gates outside that closure cannot influence a constrained
  /// side input, so check(`path`) returns the verdict the whole-network
  /// encoding would, from a smaller formula (and so a smaller
  /// certificate). Only `path` may be checked afterwards. The solver,
  /// encoding and closure scratch keep their storage, so a loop that
  /// asks one question per path pays for setting it up once; queries()
  /// and aborted() restart from zero.
  void retarget(const Path& path);

  /// Number of gates the encoding covers.
  std::size_t encoded_gates() const { return enc_->encoded_gates(); }

 private:
  /// The parameters only: the public constructors arm the solver and
  /// encode (retarget does both for the path constructor).
  struct Unencoded {};
  Sensitizer(Unencoded, const Network& net, SensitizationMode mode,
             ResourceGovernor* governor,
             const std::vector<double>* arrival_seed, bool capture);
  /// Attach the governor, an empty proof trace (in capture mode) and
  /// model reuse to a new or reset solver, before anything is encoded.
  void arm();

  /// Visit the side inputs entering `g` through `entering` constrains
  /// (see side_constraints): fn(source gate, negated literal?).
  template <class Fn>
  void for_each_side_input(GateId g, ConnId entering, double event_time,
                           Fn&& fn) const;
  /// Visit every side constraint check(`path`) assumes, in order.
  template <class Fn>
  void for_each_path_constraint(const Path& path, Fn&& fn) const;

  const Network& net_;
  SensitizationMode mode_;
  sat::Solver solver_;
  bool capture_ = false;
  std::unique_ptr<proof::DratTrace> trace_;  ///< attached before encoding
  /// Deferred so the proof trace can be attached before the encoding's
  /// clauses reach the solver (the certificate formula must be
  /// complete). Always engaged after construction.
  std::optional<CircuitEncoding> enc_;
  std::vector<double> own_arrival_;  ///< computed when no seed was given
  const std::vector<double>* arrival_ = nullptr;
  ResourceGovernor* governor_ = nullptr;
  // retarget scratch: the closure in encoding order, its DFS stack and
  // its visited marks.
  struct Frame {
    GateId gate;
    std::size_t pin;
  };
  std::vector<GateId> order_;
  std::vector<Frame> stack_;
  std::vector<std::uint32_t> seen_;  ///< == stamp_: visited this call
  std::uint32_t stamp_ = 0;
  std::size_t queries_ = 0;
  bool aborted_ = false;
};

/// Result of a computed-delay query (Section V: the "computed delay" is
/// an upper bound on the true delay; here it is the length of the
/// longest path passing the chosen sensitization condition).
struct DelayReport {
  double delay = 0.0;
  bool exact = true;  ///< false if a cap or the governor cut the search
  bool aborted = false;  ///< governor exhaustion (deadline/budget/interrupt)
  std::optional<Path> witness;
  std::optional<std::vector<bool>> cube;
  std::size_t paths_examined = 0;
};

/// Compute the delay by branch-and-bound search for the longest
/// sensitizable/viable path (the [15] "longest viable path" approach):
/// depth-first extension of path prefixes ordered by an exact
/// completion bound, pruning a whole subtree as soon as the prefix's
/// accumulated side constraints become unsatisfiable. The SAT work is
/// capped at 200000 queries; on exhaustion — or when the governor stops
/// a solve (aborted=true) — the report degrades conservatively to the
/// topological upper bound with exact=false; it never under-reports.
DelayReport computed_delay(const Network& net, SensitizationMode mode,
                           ResourceGovernor* governor = nullptr,
                           const StaSeed* seed = nullptr);

}  // namespace kms

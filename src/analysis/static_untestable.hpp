// SAT-free untestability analysis: the verdicts behind lint rules
// NL017-NL021 and `kmscli analyze`.
//
// A single stuck-at fault is untestable — i.e. the connection is
// redundant in the KMS testing sense — when a *necessary condition* for
// detecting it is structurally unsatisfiable. Three sound (never wrong,
// deliberately incomplete) rules are checked, in order:
//
//   unobservable  The fault site reaches no primary output: no path
//                 exists for the effect, so no test exists.
//   unexcitable   Exciting the fault (driving the site to the complement
//                 of the stuck value) conflicts under the static
//                 implication closure: the site is structurally constant
//                 at the stuck value.
//   blocked       Every path from the site to an output runs through a
//                 post-dominator d. If a side input of d whose source
//                 lies *outside* the fault's fanout cone (so its value
//                 is the same in the good and the faulty circuit) is
//                 forced to d's controlling value whenever the fault is
//                 excited, the effect can never pass d. "direct" mode
//                 reads the forced value straight off the excitation
//                 closure; "indirect" mode seeds *all* such side inputs
//                 with their required noncontrolling values at once and
//                 reports a conflict (each seed is individually
//                 necessary, so a joint conflict is sound).
//
// The removal phase does not use these verdicts: it proves every
// untestable fault with SAT, so each deletion carries one certificate
// kind, a DRAT proof (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/analysis/dominators.hpp"
#include "src/analysis/implication.hpp"
#include "src/atpg/fault.hpp"
#include "src/netlist/network.hpp"

namespace kms::analysis {

/// Mark `entry` and everything reachable from it through live
/// connections (indexed by gate id). Gates in this set can differ
/// between the good and the faulty circuit; everything outside holds
/// its good value.
std::vector<char> mark_cone(const Network& net, GateId entry);

enum class StaticVerdict : std::uint8_t {
  kUnknown,       ///< no rule fired; the fault needs the SAT engine
  kUnobservable,
  kUnexcitable,
  kBlocked,
};

std::string_view static_verdict_name(StaticVerdict v);

/// Static untestability engine over one network state. Construction
/// builds the post-dominator tree; analysis calls are const and
/// allocate only per-call scratch.
class StaticUntestable {
 public:
  explicit StaticUntestable(const Network& net);

  /// Analyze a stem or branch fault. kUnknown means no rule fired; any
  /// other verdict proves the fault untestable.
  StaticVerdict analyze(const Fault& f) const;

  const DominatorTree& dominators() const { return dom_; }
  const ImplicationEngine& implications() const { return imp_; }

 private:
  const Network& net_;
  DominatorTree dom_;
  ImplicationEngine imp_;
};

}  // namespace kms::analysis

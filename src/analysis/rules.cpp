#include "src/analysis/rules.hpp"

#include <string>

#include "src/analysis/implication.hpp"
#include "src/analysis/static_untestable.hpp"
#include "src/atpg/fault.hpp"
#include "src/base/strings.hpp"
#include "src/check/checker.hpp"

namespace kms::analysis {
namespace {

/// Dense value view of a closure: -1 unknown, else 0/1.
std::vector<std::int8_t> closure_values(const Network& net,
                                        const Implications& c) {
  std::vector<std::int8_t> val(net.gate_capacity(), -1);
  for (const auto& [g, v] : c.assigned)
    val[g.value()] = static_cast<std::int8_t>(v);
  return val;
}

}  // namespace

void run_analysis_rules(const Network& net, Diagnostics* out,
                        std::size_t max_diagnostics) {
  CappedEmitter emit(out, max_diagnostics);
  const StaticUntestable stat(net);
  const ImplicationEngine& imp = stat.implications();

  // NL017: both stem faults statically untestable on a gate that still
  // reaches an output — its computed value can never be observed to
  // matter.
  for (std::uint32_t i = 0; i < net.gate_capacity() && !emit.full(); ++i) {
    const GateId g{i};
    if (!is_fault_site(net, g)) continue;
    if (!stat.dominators().reaches_output(g)) continue;  // NL013 territory
    const StaticVerdict sa0 =
        stat.analyze(Fault{Fault::Site::kStem, g, ConnId::invalid(), false});
    const StaticVerdict sa1 =
        stat.analyze(Fault{Fault::Site::kStem, g, ConnId::invalid(), true});
    if (sa0 != StaticVerdict::kUnknown && sa1 != StaticVerdict::kUnknown)
      emit.add("NL017",
               gate_label(net, g) + " reaches an output but both stem faults"
               " are statically untestable (SA0 " +
                   std::string(static_verdict_name(sa0)) + ", SA1 " +
                   std::string(static_verdict_name(sa1)) + ")",
               g);
  }

  // NL018: implication closure proves a non-constant gate cannot take
  // one of its output values.
  for (std::uint32_t i = 0; i < net.gate_capacity() && !emit.full(); ++i) {
    const GateId g{i};
    const Gate& gt = net.gate(g);
    if (gt.dead || !is_logic(gt.kind) || is_constant(gt.kind)) continue;
    for (bool v : {false, true}) {
      if (imp.propagate({{g, v}}).conflict) {
        emit.add("NL018",
                 gate_label(net, g) +
                     str_format(" is statically constant %d (cannot take "
                                "value %d)",
                                v ? 0 : 1, v ? 1 : 0),
                 g);
        break;
      }
    }
  }

  // NL019: a fanout branch with a statically untestable stuck-at fault —
  // the connection is a KMS redundancy, replaceable by that constant.
  for (std::uint32_t i = 0; i < net.conn_capacity() && !emit.full(); ++i) {
    const ConnId c{i};
    if (net.conn(c).dead) continue;
    const GateId src = net.conn(c).from;
    if (!is_fault_site(net, src) || net.gate(src).fanouts.size() <= 1)
      continue;
    if (net.gate(net.conn(c).to).kind == GateKind::kOutput) continue;
    for (bool v : {false, true}) {
      const StaticVerdict r =
          stat.analyze(Fault{Fault::Site::kBranch, GateId::invalid(), c, v});
      if (r != StaticVerdict::kUnknown) {
        emit.add("NL019",
                 "branch " + gate_label(net, src) + " -> " +
                     gate_label(net, net.conn(c).to) +
                     str_format(" stuck-at-%d is statically untestable (%s);"
                                " connection replaceable by constant %d",
                                v ? 1 : 0,
                                std::string(static_verdict_name(r))
                                    .c_str(),
                                v ? 1 : 0),
                 GateId::invalid(), c);
        break;
      }
    }
  }

  // NL020: unusually large structural fault-equivalence classes.
  for (const std::vector<Fault>& cls : fault_classes(net)) {
    if (emit.full()) break;
    if (cls.size() < kLargeFaultClass) break;  // sorted by size
    emit.add("NL020",
             str_format("fault equivalence class of %zu members "
                        "(representative %s)",
                        cls.size(), format_fault(net, cls.front()).c_str()),
             fault_source(net, cls.front()));
  }

  // NL021: reconvergence gate implied to the same value under both stem
  // values — the reconvergent paths statically cancel.
  for (std::uint32_t i = 0; i < net.gate_capacity() && !emit.full(); ++i) {
    const GateId g{i};
    if (!is_fault_site(net, g) || net.gate(g).fanouts.size() <= 1) continue;
    const Implications c0 = imp.propagate({{g, false}});
    const Implications c1 = imp.propagate({{g, true}});
    if (c0.conflict || c1.conflict) continue;  // NL018 territory
    const std::vector<std::int8_t> v0 = closure_values(net, c0);
    const std::vector<std::int8_t> v1 = closure_values(net, c1);
    const std::vector<char> cone = mark_cone(net, g);
    for (std::uint32_t j = 0; j < net.gate_capacity(); ++j) {
      const GateId r{j};
      if (!cone[j] || r == g || net.gate(r).dead) continue;
      // Only true reconvergence points: at least two live fanins inside
      // the stem's cone.
      std::size_t in_cone = 0;
      for (ConnId c : net.gate(r).fanins)
        if (cone[net.conn(c).from.value()]) ++in_cone;
      if (in_cone < 2) continue;
      if (v0[j] != -1 && v0[j] == v1[j]) {
        emit.add("NL021",
                 gate_label(net, r) +
                     str_format(" is implied to %d under both values of "
                                "fanout stem ",
                                static_cast<int>(v0[j])) +
                     gate_label(net, g) + " — reconvergent paths cancel",
                 r);
        break;  // one finding per stem keeps the output readable
      }
    }
  }
}

}  // namespace kms::analysis

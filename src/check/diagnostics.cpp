#include "src/check/diagnostics.hpp"

#include <ostream>
#include <sstream>

#include "src/base/strings.hpp"

namespace kms {

std::string_view severity_name(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

const std::vector<RuleInfo>& all_rules() {
  static const std::vector<RuleInfo> rules = {
      {"NL001", Severity::kError, "acyclicity",
       "the live gate/connection graph must contain no cycles"},
      {"NL002", Severity::kError, "endpoint-liveness",
       "both endpoints of a live connection must be live, in-range gates"},
      {"NL003", Severity::kError, "fanout-reciprocity",
       "a live connection must appear in its source gate's fanout list"},
      {"NL004", Severity::kError, "fanin-reciprocity",
       "a live connection must appear in its sink gate's fanin list"},
      {"NL005", Severity::kError, "stale-fanin",
       "every fanin list entry must be a live, in-range connection whose "
       "sink is this gate"},
      {"NL006", Severity::kError, "stale-fanout",
       "every fanout list entry must be a live, in-range connection whose "
       "source is this gate"},
      {"NL007", Severity::kError, "duplicate-pin",
       "a connection id must appear at most once in a fanin/fanout list"},
      {"NL008", Severity::kError, "pin-shape",
       "the fanin count must match the gate kind (sources 0, BUF/NOT/"
       "output 1, MUX 3, other logic >= 1)"},
      {"NL009", Severity::kError, "output-marker",
       "outputs() must list exactly the live kOutput gates, once each, "
       "and markers must drive nothing"},
      {"NL010", Severity::kError, "input-marker",
       "inputs() must list exactly the live kInput gates, once each"},
      {"NL011", Severity::kWarning, "constant-uniqueness",
       "at most one live constant gate per polarity (const_gate contract)"},
      {"NL012", Severity::kError, "negative-delay",
       "gate and connection delays must be nonnegative"},
      {"NL013", Severity::kWarning, "orphan-cone",
       "a live logic gate should reach some primary output (dead cones "
       "survive only until sweep)"},
      {"NL014", Severity::kWarning, "name-collision",
       "interface (PI/PO) names should be unique, or BLIF round-trips "
       "rename them"},
      {"NL015", Severity::kWarning, "unused-input",
       "a primary input should drive at least one live connection"},
      {"NL016", Severity::kWarning, "unswept-constant",
       "a live logic gate should not be driven by a constant gate "
       "(constant propagation has not reached fixpoint)"},
      // NL017..NL021 are produced by the static analysis engine
      // (src/analysis/rules.cpp); the structural NetworkChecker never
      // emits them, but they share this registry so kmslint and kmscli
      // --analyze report them uniformly.
      {"NL017", Severity::kWarning, "static-untestable-stem",
       "a gate reaching an output has both stem stuck-at faults "
       "statically untestable (redundant logic a SAT-free pass would "
       "remove)"},
      {"NL018", Severity::kWarning, "static-constant",
       "the implication closure proves a non-constant gate can never "
       "take one of its values (statically constant)"},
      {"NL019", Severity::kWarning, "blocked-branch",
       "a fanout branch carries a statically untestable stuck-at fault "
       "and could be replaced by a constant without changing function"},
      {"NL020", Severity::kWarning, "large-fault-class",
       "a structural fault-equivalence class is unusually large (highly "
       "uniform logic; one test covers many faults)"},
      {"NL021", Severity::kWarning, "masked-reconvergence",
       "a reconvergent fanout stem implies the same value at its "
       "reconvergence gate under both polarities (self-masking "
       "structure)"},
      // NL022..NL028 are produced by the timing subsystem's checker
      // (src/timing/checker.cpp): NL022/NL023 by the lint-style declared-
      // data rules, NL024..NL028 by the timing-invariant audit that backs
      // --check and the KMS phase checkpoints.
      {"NL022", Severity::kError, "delay-sanity",
       "every live gate and connection must declare a finite, nonnegative "
       "delay (and every input a finite arrival) for timing analysis to "
       "be meaningful"},
      {"NL023", Severity::kWarning, "stale-arrival-bound",
       "a gate that reaches no primary output arrives later than the "
       "network delay bound (a stale cone that would inflate any naive "
       "max-over-gates delay estimate)"},
      {"NL024", Severity::kError, "arrival-monotonicity",
       "arrival times must be monotone along live connections (a sink "
       "settles no earlier than any source plus edge and gate delays)"},
      {"NL025", Severity::kError, "negative-slack",
       "slack = required - arrival must be nonnegative everywhere when "
       "the required times are set from the network's own delay"},
      {"NL026", Severity::kError, "po-arrival-bound",
       "no primary output may settle after the network delay bound (the "
       "bound is their maximum by definition)"},
      {"NL027", Severity::kError, "minus-inf-arrival",
       "-infinity arrival marks exactly the constants and constant-fed "
       "cones; inputs and gates with a finite-arrival fanin never carry "
       "it"},
      {"NL028", Severity::kError, "sta-divergence",
       "the incremental timing engine's maintained tables must equal a "
       "from-scratch recompute bit-for-bit (any mismatch is a missed "
       "dirty seed)"},
      {"NL900", Severity::kError, "parse",
       "the input file must parse as BLIF (emitted by kmslint only)"},
  };
  return rules;
}

const RuleInfo* find_rule(std::string_view id) {
  for (const RuleInfo& r : all_rules())
    if (id == r.id) return &r;
  return nullptr;
}

void Diagnostics::add(Diagnostic d) {
  if (d.severity == Severity::kError) {
    ++errors_;
  } else {
    ++warnings_;
  }
  diags_.push_back(std::move(d));
}

void CappedEmitter::add(const char* rule, std::string message, GateId gate,
                        ConnId conn) {
  if (out_->all().size() >= cap_) {
    out_->mark_truncated();
    return;
  }
  const RuleInfo* info = find_rule(rule);
  Diagnostic d;
  d.rule = rule;
  d.severity = info ? info->severity : Severity::kError;
  d.message = std::move(message);
  d.gate = gate;
  d.conn = conn;
  out_->add(std::move(d));
}

void Diagnostics::print_text(std::ostream& out,
                             const std::string& prefix) const {
  for (const Diagnostic& d : diags_) {
    out << prefix;
    if (d.line > 0) out << "line " << d.line << ": ";
    out << severity_name(d.severity) << " " << d.rule << ": " << d.message
        << "\n";
  }
  if (truncated_)
    out << prefix << "note: diagnostic limit reached, output truncated\n";
}

std::string Diagnostics::to_text(const std::string& prefix) const {
  std::ostringstream out;
  print_text(out, prefix);
  return out.str();
}

void Diagnostics::print_json(std::ostream& out) const { out << to_json(); }

std::string Diagnostics::to_json() const {
  std::string out = "{\"diagnostics\":[";
  for (const Diagnostic& d : diags_) {
    if (&d != &diags_.front()) out += ",";
    out += "{\"rule\":";
    json_append_quoted(&out, d.rule);
    out += ",\"severity\":\"";
    out += severity_name(d.severity);
    out += "\",\"message\":";
    json_append_quoted(&out, d.message);
    if (d.gate.is_valid()) out += ",\"gate\":" + std::to_string(d.gate.value());
    if (d.conn.is_valid()) out += ",\"conn\":" + std::to_string(d.conn.value());
    if (d.line > 0) out += ",\"line\":" + std::to_string(d.line);
    out += "}";
  }
  out += "],\"errors\":" + std::to_string(errors_) +
         ",\"warnings\":" + std::to_string(warnings_) +
         ",\"truncated\":" + (truncated_ ? "true" : "false") + "}";
  return out;
}

}  // namespace kms

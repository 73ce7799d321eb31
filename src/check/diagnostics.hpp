// Diagnostics engine for the netlist invariant checker.
//
// A Diagnostic is one finding: a stable rule id ("NL001"...), a severity,
// a human-readable message, and (when applicable) the gate/connection it
// anchors to. Diagnostics is an append-only collection with text and JSON
// emitters, shared by the NetworkChecker, the `kmslint` CLI, and the
// per-operation self-check hooks.
//
// Rule ids are a stable public contract: scripts grep for them, tests
// assert on them, and DESIGN.md documents them. Add new rules at the end;
// never renumber.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/base/ids.hpp"

namespace kms {

enum class Severity { kWarning, kError };

/// "warning" or "error".
std::string_view severity_name(Severity s);

/// Static metadata for one checker rule.
struct RuleInfo {
  const char* id;       ///< stable id, e.g. "NL001"
  Severity severity;    ///< severity every diagnostic of this rule carries
  const char* title;    ///< short slug, e.g. "acyclicity"
  const char* summary;  ///< one-line description of the invariant
};

/// All rules the checker (and kmslint) can emit, in id order.
const std::vector<RuleInfo>& all_rules();

/// Look up a rule by id; nullptr if unknown.
const RuleInfo* find_rule(std::string_view id);

/// One checker finding.
struct Diagnostic {
  std::string rule;                  ///< e.g. "NL004"
  Severity severity = Severity::kError;
  std::string message;               ///< human text, includes gate labels
  GateId gate = GateId::invalid();   ///< anchor gate, if any
  ConnId conn = ConnId::invalid();   ///< anchor connection, if any
  int line = 0;                      ///< source line (kmslint parse errors)
};

/// Append-only list of findings with severity tallies and emitters.
class Diagnostics {
 public:
  void add(Diagnostic d);

  const std::vector<Diagnostic>& all() const { return diags_; }
  bool empty() const { return diags_.empty(); }
  std::size_t error_count() const { return errors_; }
  std::size_t warning_count() const { return warnings_; }

  /// True when findings were dropped because a cap was reached.
  bool truncated() const { return truncated_; }
  void mark_truncated() { truncated_ = true; }

  /// One finding per line: "<prefix>error NL004: ...". `prefix` is
  /// typically "file.blif: " or empty.
  void print_text(std::ostream& out, const std::string& prefix = {}) const;
  std::string to_text(const std::string& prefix = {}) const;

  /// JSON object: {"diagnostics":[...],"errors":N,"warnings":M,
  /// "truncated":bool}. Stable field order, suitable for scripting.
  void print_json(std::ostream& out) const;
  std::string to_json() const;

 private:
  std::vector<Diagnostic> diags_;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
  bool truncated_ = false;
};

/// Appends findings to a Diagnostics until it holds `cap` in all. The
/// first finding that does not fit is dropped and marks the report
/// truncated, and only then does full() turn true: a scan that stops on
/// full() has run past the cap far enough to know the report is
/// incomplete. Each finding takes its rule's registered severity.
class CappedEmitter {
 public:
  CappedEmitter(Diagnostics* out, std::size_t cap) : out_(out), cap_(cap) {}

  bool full() const { return out_->truncated(); }

  void add(const char* rule, std::string message,
           GateId gate = GateId::invalid(), ConnId conn = ConnId::invalid());

 private:
  Diagnostics* out_;
  std::size_t cap_;
};

}  // namespace kms

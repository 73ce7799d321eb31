// DRAT proof traces and per-query UNSAT certificates.
//
// DratTrace is the sat::ProofSink the library attaches to a solver when
// a run must be auditable. It stores the original formula, the lemma
// (learned-clause) additions and deletions in order, and segments the
// stream per solve() call: after a solve that concluded kUnsat — and
// only then — last_unsat_certificate() yields a self-contained
// DratCertificate {formula, assumptions, lemma steps} that an
// independent checker (src/proof/checker.hpp) can verify with no help
// from the solver.
//
// Capture is flat: each clause's solver literals are appended to one
// buffer, and DIMACS clauses are built only when a certificate is asked
// for. Most queries end kSat and never pay for the conversion; reset()
// lets one trace serve a solver that is reset per query.
//
// Conclusions are deliberately never appended to the shared step list:
// the empty clause of query N is valid only under query N's assumptions,
// so a reused solver's next query must not inherit it. on_solve_begin
// resets the per-solve conclusion state; lemmas, which are consequences
// of the clause database alone, legitimately accumulate across queries.
//
// Clauses use the DIMACS convention (signed 1-based variables) so the
// emitted .cnf/.drat files are standard and the checker shares not even
// a literal type with the solver.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/sat/solver.hpp"

namespace kms::proof {

/// A clause in DIMACS literals (+v / -v, 1-based), sorted canonically
/// by (variable, sign) so deletion matching is order-insensitive.
using Clause = std::vector<std::int32_t>;

/// Convert solver literals to a canonical DIMACS clause.
Clause to_dimacs(std::span<const sat::Lit> lits);

struct DratStep {
  enum class Kind : std::uint8_t { kLearn, kDelete };
  Kind kind;
  Clause clause;
};

/// Self-contained certificate for one UNSAT verdict: the formula as the
/// caller stated it, the assumption literals of the query, and the lemma
/// steps ending (implicitly) in the empty clause. check_drat() verifies
/// that every lemma is a reverse-unit-propagation consequence and that
/// unit propagation on formula + assumptions + lemmas derives a conflict.
struct DratCertificate {
  std::uint64_t query = 0;  ///< solve index within the emitting trace
  std::vector<Clause> formula;
  Clause assumptions;  ///< assumed units (DIMACS literals)
  std::vector<DratStep> steps;

  /// Highest variable mentioned anywhere (for DIMACS headers).
  std::int32_t max_var() const;
};

/// In-memory proof recorder; attach with Solver::set_proof() before the
/// first add_clause.
class DratTrace final : public sat::ProofSink {
 public:
  void on_original(const std::vector<sat::Lit>& clause) override;
  void on_learn(const std::vector<sat::Lit>& clause) override;
  void on_delete(const std::vector<sat::Lit>& clause) override;
  void on_solve_begin(const std::vector<sat::Lit>& assumptions) override;
  void on_solve_end(sat::Result result) override;

  /// Certificate for the most recently *concluded* solve, iff it ended
  /// kUnsat. Returns nullopt after a kSat or kUnknown conclusion (an
  /// aborted solve must never look provable) and once a new solve has
  /// begun.
  std::optional<DratCertificate> last_unsat_certificate() const;

  /// Return to the freshly constructed state, keeping the storage.
  void reset();

  std::uint64_t solves() const { return solves_; }
  std::size_t formula_size() const { return formula_size_; }
  std::size_t step_count() const { return kinds_.size() - formula_size_; }

 private:
  enum class Entry : std::uint8_t { kOriginal, kLearn, kDelete };
  void append(Entry kind, const std::vector<sat::Lit>& clause);

  // Every clause the solver reported, in order: its literals end at
  // ends_[i] in lits_ and kinds_[i] says what it was.
  std::vector<sat::Lit> lits_;
  std::vector<std::uint32_t> ends_;
  std::vector<Entry> kinds_;
  std::size_t formula_size_ = 0;
  std::vector<sat::Lit> assumptions_;
  std::uint64_t solves_ = 0;
  bool concluded_unsat_ = false;
};

/// DIMACS CNF for the certificate's formula with the assumptions
/// appended as unit clauses (so "formula ∧ assumptions" is literally the
/// file's formula and the .drat file is checkable by any DRAT checker).
/// Assumption units are flagged with a preceding "c assumption" comment.
void write_cnf(const DratCertificate& cert, std::ostream& out);

/// Standard DRAT text: one lemma per line ("l1 l2 0", deletions with a
/// leading "d"), terminated by the empty clause line "0".
void write_drat(const DratCertificate& cert, std::ostream& out);

/// Parse the two files back into a certificate (assumption units are
/// recovered from the "c assumption" markers). Throws std::runtime_error
/// on malformed input.
DratCertificate read_certificate(std::istream& cnf, std::istream& drat);

}  // namespace kms::proof

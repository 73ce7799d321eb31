// Independent DRAT certificate checker.
//
// Verifies a DratCertificate by forward RUP checking: every lemma
// addition must be a reverse-unit-propagation consequence of the clause
// database at that point (formula + assumptions + surviving earlier
// lemmas), deletions are honoured as they occur, and the proof must end
// with unit propagation deriving a conflict — the empty clause.
//
// This is a from-scratch implementation sharing no code with
// sat::Solver's propagation loop: its own literal encoding (DIMACS),
// its own watched-literal scheme (fixed watch slots instead of literal
// reordering), its own trail. A solver bug therefore cannot validate
// its own bogus proofs.
//
// Deletion handling follows the drat-trim convention: deleting a clause
// that is currently the reason of a root-level assignment is skipped
// (performing it would leave the checker trusting a no-longer-derivable
// literal — unsound); deleting a clause not in the database is an error
// here (stricter than drat-trim, to catch forged traces).
//
// Storage is flat and reused: one literal arena with plain clause
// records, and watch lists and per-variable arrays that a DratChecker
// keeps across certificates (a session checks hundreds). The
// exact-match index deletions need is built only at a certificate's
// first deletion.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "src/proof/drat.hpp"

namespace kms::proof {

struct DratCheckResult {
  bool ok = false;
  std::string error;  ///< empty when ok; names the offending step if not
  std::size_t lemmas_checked = 0;
  std::size_t deletions_applied = 0;

  explicit operator bool() const { return ok; }
};

/// Forward RUP checker whose storage outlives one certificate.
class DratChecker {
 public:
  DratChecker();
  ~DratChecker();

  /// Verify `cert`. ok iff every lemma is RUP and the certificate
  /// derives the empty clause under the recorded assumptions. The result
  /// does not depend on what was checked before.
  DratCheckResult check(const DratCertificate& cert);

 private:
  class Rup;
  std::unique_ptr<Rup> rup_;
};

/// One-shot check: DratChecker().check(cert).
DratCheckResult check_drat(const DratCertificate& cert);

}  // namespace kms::proof

// Certificate verification: replay a proof session end to end.
//
// verify_session() is the auditor for a proof-carrying KMS run. It
// trusts nothing the pipeline claims: every journal step is validated by
// a local inference rule (a deletion must cite a previously journalled
// untestable-fault verdict for the same fault; a duplication or constant
// assertion must follow an unsensitizable-path verdict), every verdict's
// DRAT certificate is re-checked from scratch (src/proof/checker.hpp),
// the journal digests are recomputed from the BLIF bytes they claim to
// bracket, and the output netlist is re-validated with the structural
// NetworkChecker. A journal that ends "complete" while containing any
// unknown-verdict step is rejected.
//
// What this proves: every structural deletion the run performed is
// backed by a machine-checked UNSAT certificate over the CNF the
// pipeline stated, and the emitted netlist is structurally sound.
// What it does not prove: that the stated CNF faithfully encodes the
// netlist (the encoder is trusted; see DESIGN.md §10), or anything
// about runs finalized as partial beyond the steps they did prove.
#pragma once

#include <cstddef>
#include <string>

#include "src/proof/journal.hpp"

namespace kms::proof {

struct VerifyReport {
  bool ok = false;
  std::string error;  ///< first failure, empty when ok
  bool partial = false;  ///< run was degraded (verified steps still hold)
  std::size_t steps_checked = 0;
  std::size_t certificates_checked = 0;
  std::size_t deletions_verified = 0;

  explicit operator bool() const { return ok; }
};

/// Verify `session` against the BLIF serializations it claims to
/// transform between. `input_blif` / `output_blif` are the exact bytes
/// the journal digests bracket.
VerifyReport verify_session(const ProofSession& session,
                            const std::string& input_blif,
                            const std::string& output_blif);

/// Write the session as a standalone artifact directory:
///   input.blif, output.blif, journal.txt, q<N>.cnf + q<N>.drat per
/// DRAT certificate.
/// Creates `dir` (and parents) if needed. Throws std::runtime_error on
/// I/O failure.
void write_artifacts(const ProofSession& session, const std::string& dir,
                     const std::string& input_blif,
                     const std::string& output_blif);

/// Durably (atomic write-temp-then-rename) write the certificate files
/// q<N>.cnf/.drat for indices >= `first`. The incremental-persistence
/// entry the crash-safe session layer (src/recover/) uses at each
/// commit: already-durable certificates are never rewritten.
void write_certificate_files(const ProofSession& session,
                             const std::string& dir, std::size_t first);

/// Load an artifact directory written by write_artifacts() and verify
/// it. All parse errors are reported through the VerifyReport (never
/// thrown) so a corrupted artifact cannot crash the checker.
VerifyReport verify_artifact_dir(const std::string& dir);

}  // namespace kms::proof

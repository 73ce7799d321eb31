// The job-oriented public API: JobSpec in, JobReport out.
//
// Every way of running the engine — the kmscli command line, the kmsd
// daemon, a test harness — builds the same serializable JobSpec and
// receives the same serializable JobReport, so there is exactly one
// behavior to test and the CLI and the service cannot drift apart.
// Before this header the tools each re-threaded RunContext, governor
// limits and stats printing by hand; now all engine options are plain
// data with a schema-versioned JSON round-trip.
//
// Wire format: one JSON object per line (NDJSON). A spec whose "schema"
// is not exactly kJobSchemaV1 is rejected, as is any unknown key — a
// daemon must fail loudly on input from a future client rather than
// silently ignore an option that changes the result.
//
// The field tables are X-macros so serialization, parsing, equality and
// the round-trip fuzz tests enumerate exactly the same set: adding a
// field in one place adds it everywhere, and a field that would not
// survive the round trip cannot be added by construction.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/counters.hpp"

namespace kms::serve {

inline constexpr const char* kJobSchemaV1 = "kms-job-v1";
inline constexpr const char* kReportSchemaV1 = "kms-report-v1";

class JobError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What the job asks the engine to do. kCertify is kIrr with the
/// in-process proof audit of its proof session; kStats
/// with a payload summarizes the circuit, without one it reports the
/// serving daemon's own counters.
enum class JobKind { kIrr, kAudit, kCertify, kAnalyze, kLint, kDelay, kStats };

const char* job_kind_name(JobKind kind);
bool parse_job_kind(const std::string& name, JobKind* out);

// JobSpec field tables. Defaults here ARE the public CLI defaults —
// tools/args.hpp maps flags straight onto these fields.
#define KMS_JOB_SPEC_STRING_FIELDS(X)                                       \
  X(client, "")           /* identity for per-client admission caps    */   \
  X(blif, "")             /* inline BLIF payload ...                   */   \
  X(blif_path, "")        /* ... or a server-readable path (pick one)  */   \
  X(mode, "static")       /* sensitization: "static" | "viability"     */   \
  X(emit_proof, "")       /* artifact directory (irr/certify only)     */   \
  X(resume, "")           /* crashed-session directory to continue     */   \
  X(output_path, "")      /* write the result BLIF here (irr only)     */

#define KMS_JOB_SPEC_U64_FIELDS(X)                                          \
  X(jobs, 1)              /* removal workers; 0 = hardware concurrency */   \
  X(checkpoint_every, 8)  /* commits per checkpoint; 0 = phases only   */

#define KMS_JOB_SPEC_I64_FIELDS(X)                                          \
  X(conflict_limit, -1)   /* global SAT conflict budget; -1 unlimited  */

#define KMS_JOB_SPEC_F64_FIELDS(X)                                          \
  X(time_limit, 0.0)      /* wall-clock seconds; 0 = unlimited         */

#define KMS_JOB_SPEC_BOOL_FIELDS(X)                                         \
  X(check, false)         /* invariant checker + timing-table audit    */   \
  X(json, false)          /* analyze/lint: machine-readable text       */   \
  X(strict, false)        /* lint: warnings fail the job               */   \
  X(warnings, true)       /* lint: run warning-severity rules          */   \
  X(want_output, true)    /* irr: include the result BLIF in the report*/

struct JobSpec {
  std::string schema = kJobSchemaV1;
  JobKind kind = JobKind::kIrr;

#define KMS_DECL(name, dflt) std::string name = dflt;
  KMS_JOB_SPEC_STRING_FIELDS(KMS_DECL)
#undef KMS_DECL
#define KMS_DECL(name, dflt) std::uint64_t name = dflt;
  KMS_JOB_SPEC_U64_FIELDS(KMS_DECL)
#undef KMS_DECL
#define KMS_DECL(name, dflt) std::int64_t name = dflt;
  KMS_JOB_SPEC_I64_FIELDS(KMS_DECL)
#undef KMS_DECL
#define KMS_DECL(name, dflt) double name = dflt;
  KMS_JOB_SPEC_F64_FIELDS(KMS_DECL)
#undef KMS_DECL
#define KMS_DECL(name, dflt) bool name = dflt;
  KMS_JOB_SPEC_BOOL_FIELDS(KMS_DECL)
#undef KMS_DECL

  /// Canonical one-line JSON: every field, fixed order. Two specs are
  /// equal iff their canonical JSON is byte-equal.
  std::string to_json() const;

  /// Cheap structural validation (payload present where required, enum
  /// strings legal, numeric ranges); returns a diagnostic or "".
  std::string validate() const;

  bool operator==(const JobSpec& other) const = default;
};

/// Parse one spec. Throws JobError naming the offending key on:
/// wrong/missing schema version, unknown key, type mismatch. Purely
/// structural — any structurally well-formed spec round-trips; semantic
/// checks are validate()'s job, run at admission (daemon) and before
/// execution (run_job).
JobSpec parse_job_spec(const std::string& json_text);

// JobReport fields. The run's counters come from the one counter table
// (src/core/counters.hpp), under their report keys; the fields below are
// the report's own: identity, verdict, digests, the governor's charged
// budgets, the certification, audit, lint and daemon results.
#define KMS_JOB_REPORT_FIELDS(X)                                            \
  X(kind, std::string, "")        /* job_kind_name of the spec          */ \
  X(verdict, std::string, "")     /* "ok"|"degraded"|"error"|"rejected" */ \
  X(error, std::string, "")       /* diagnostic when error/rejected     */ \
  X(text, std::string, "")        /* formatted report body (stdout)     */ \
  X(output_blif, std::string, "") /* result netlist (irr, want_output)  */ \
  /* FNV-1a over BLIF bytes */                                              \
  X(input_digest, std::uint64_t, 0) X(output_digest, std::uint64_t, 0)      \
  X(gov_queries, std::uint64_t, 0) X(gov_unknown, std::uint64_t, 0)         \
  X(gov_conflicts, std::uint64_t, 0) X(gov_propagations, std::uint64_t, 0)  \
  /* always 0 (no static pre-pass); e2ebench/driver.cpp reads it */         \
  X(removal_static_discharged, std::uint64_t, 0)                            \
  X(steps_checked, std::uint64_t, 0)                                        \
  X(certificates_checked, std::uint64_t, 0)                                 \
  X(deletions_verified, std::uint64_t, 0)                                   \
  X(audit_faults, std::uint64_t, 0) X(audit_redundant, std::uint64_t, 0)    \
  X(audit_unknown, std::uint64_t, 0)                                        \
  X(audit_sat_conflicts, std::uint64_t, 0)                                  \
  X(lint_errors, std::uint64_t, 0) X(lint_findings, std::uint64_t, 0)       \
  X(daemon_served, std::uint64_t, 0) X(daemon_cache_hits, std::uint64_t, 0) \
  X(daemon_cache_entries, std::uint64_t, 0)                                 \
  X(daemon_rejected, std::uint64_t, 0) X(daemon_queued, std::uint64_t, 0)   \
  X(daemon_running, std::uint64_t, 0)                                       \
  X(wall_seconds, double, 0.0)                                              \
  X(cache_hit, bool, false)       /* served from the daemon's cache     */ \
  X(certified, bool, false) X(certify_partial, bool, false)

/// Every counter of the run, as KMS_COUNTER_KEY(member, ...) report keys.
#define KMS_JOB_REPORT_COUNTERS(X) \
  KMS_LOOP_COUNTERS(X) KMS_REMOVAL_COUNTERS(X) KMS_ATPG_COUNTERS(X)

struct JobReport {
  std::string schema = kReportSchemaV1;
  int exit_code = 0;  ///< the kmscli exit-code contract: 0/1/2/3

#define KMS_DECL(name, type, dflt) type name = dflt;
  KMS_JOB_REPORT_FIELDS(KMS_DECL)
#undef KMS_DECL
#define KMS_DECL(member, type, rule, ...) \
  type KMS_COUNTER_KEY(member, __VA_ARGS__) = counter::rule::identity<type>();
  KMS_JOB_REPORT_COUNTERS(KMS_DECL)
#undef KMS_DECL

  /// Structured diagnostics: one entry per checker/lint finding or
  /// degradation note, in emission order.
  std::vector<std::string> diagnostics;

  std::string to_json() const;

  bool operator==(const JobReport& other) const = default;
};

/// Parse one report (same strictness rules as parse_job_spec).
JobReport parse_job_report(const std::string& json_text);

/// FNV-1a fingerprint of everything that determines the report: the
/// payload digest plus every result-affecting option, i.e. the
/// canonical spec JSON with the payload replaced by its digest and the
/// client identity blanked. Two jobs with equal fingerprints produce
/// byte-identical reports (modulo wall_seconds/cache_hit), which is
/// what licenses the daemon's result cache.
std::uint64_t job_fingerprint(const JobSpec& spec,
                              std::uint64_t payload_digest);

}  // namespace kms::serve

// Shared command-line parsing for the kms tools.
//
// Every tool's flags are a view of the same job API: a flag maps onto a
// JobSpec field (src/serve/job.hpp), so `kmscli irr --jobs 4` and a
// {"kind":"irr","jobs":4} line sent to kmsd mean the same run by
// construction — there is exactly one option surface, the JobSpec, and
// the flag table below is its only CLI binding. Tools share this header
// so --jobs/--time-limit/--conflict-limit (and the rest) spell,
// validate, and fail identically everywhere.
//
// Error reporting is uniform: a value that is missing or out of range
// prints "<tool>: flag '<flag>' <what>" and an unrecognized flag prints
// "<tool>: unknown flag '<flag>'", always on stderr, after which the
// tool shows its usage and exits 1.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/serve/job.hpp"

namespace kms::tools {

/// Outcome of offering argv[*i] to the shared JobSpec flag table.
enum class FlagResult {
  kHandled,   ///< consumed (with its value if any); *i advanced past it
  kUnknown,   ///< not a flag this table knows — the tool's own business
  kBadValue,  ///< recognized, but the value is missing or out of range
              ///< (diagnostic already printed)
};

/// The uniform stray-flag diagnostic, shared verbatim by every tool.
inline void report_unknown_flag(const char* tool, const char* flag) {
  std::fprintf(stderr, "%s: unknown flag '%s'\n", tool, flag);
}

namespace detail {

inline bool take_value(int argc, char** argv, int* i, const char** out) {
  if (*i + 1 >= argc) return false;
  *out = argv[++*i];
  return true;
}

inline bool to_int(const char* s, long long lo, long long hi,
                   long long* out) {
  char* end = nullptr;
  const long long n = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || n < lo || n > hi) return false;
  *out = n;
  return true;
}

}  // namespace detail

/// Offer argv[*i] to the JobSpec flag table; on kHandled *i is left on
/// the last consumed token (the usual `for (...; ++i)` pattern).
inline FlagResult parse_job_flag(const char* tool, int argc, char** argv,
                                 int* i, serve::JobSpec* spec) {
  const std::string a = argv[*i];
  const auto bad = [&](const char* what) {
    std::fprintf(stderr, "%s: flag '%s' %s\n", tool, a.c_str(), what);
    return FlagResult::kBadValue;
  };
  const char* v = nullptr;
  long long n = 0;

  if (a == "-o" || a == "--output") {
    if (!detail::take_value(argc, argv, i, &v)) return bad("expects a path");
    spec->output_path = v;
    spec->want_output = false;  // the runner writes the file directly
    return FlagResult::kHandled;
  }
  if (a == "--mode") {
    if (!detail::take_value(argc, argv, i, &v) ||
        (std::strcmp(v, "static") != 0 && std::strcmp(v, "viability") != 0))
      return bad("expects static|viability");
    spec->mode = v;
    return FlagResult::kHandled;
  }
  if (a == "--emit-proof") {
    if (!detail::take_value(argc, argv, i, &v))
      return bad("expects a directory");
    spec->emit_proof = v;
    return FlagResult::kHandled;
  }
  if (a == "--resume") {
    if (!detail::take_value(argc, argv, i, &v))
      return bad("expects a directory");
    spec->resume = v;
    return FlagResult::kHandled;
  }
  if (a == "--checkpoint-every") {
    if (!detail::take_value(argc, argv, i, &v) ||
        !detail::to_int(v, 0, 1LL << 40, &n))
      return bad("expects a commit count >= 0");
    spec->checkpoint_every = static_cast<std::uint64_t>(n);
    return FlagResult::kHandled;
  }
  if (a == "--time-limit") {
    char* end = nullptr;
    if (!detail::take_value(argc, argv, i, &v)) return bad("expects seconds");
    const double sec = std::strtod(v, &end);
    if (end == v || *end != '\0' || sec <= 0)
      return bad("expects a positive number of seconds");
    spec->time_limit = sec;
    return FlagResult::kHandled;
  }
  if (a == "--conflict-limit") {
    if (!detail::take_value(argc, argv, i, &v) ||
        !detail::to_int(v, 0, 1LL << 40, &n))
      return bad("expects a conflict budget >= 0");
    spec->conflict_limit = n;
    return FlagResult::kHandled;
  }
  if (a == "--jobs") {
    if (!detail::take_value(argc, argv, i, &v) ||
        !detail::to_int(v, 0, 1024, &n))
      return bad("expects a worker count 0..1024");
    spec->jobs = static_cast<std::uint64_t>(n);
    return FlagResult::kHandled;
  }
  if (a == "--check") return spec->check = true, FlagResult::kHandled;
  if (a == "--json") return spec->json = true, FlagResult::kHandled;
  if (a == "--certify") {
    // The certify job is the irr job with its proof session verified.
    if (spec->kind != serve::JobKind::kIrr &&
        spec->kind != serve::JobKind::kCertify)
      return bad("is only meaningful for irr");
    spec->kind = serve::JobKind::kCertify;
    return FlagResult::kHandled;
  }
  if (a == "--strict") return spec->strict = true, FlagResult::kHandled;
  if (a == "--no-warn") return spec->warnings = false, FlagResult::kHandled;
  return FlagResult::kUnknown;
}

}  // namespace kms::tools

// run_job — the one engine entry point behind every front end.
//
// kmscli builds a JobSpec from its flags and calls this; kmsd parses
// the same JobSpec off the wire and calls this; the tests call it
// directly. Because the artifact-producing code path (BLIF parsing,
// RunContext wiring, durable sessions, proof finalization) is shared,
// a job submitted over the socket produces byte-identical artifacts to
// the same job run from the command line — the property the serve e2e
// suite pins down.
//
// run_job never throws: every failure is folded into the report
// (verdict "error"/"rejected", exit_code per the kmscli contract, the
// diagnostic in `error`). The caller owns the governor so it can wire
// signals (CLI) or a drain broadcast (daemon) to it; run_job arms the
// spec's time/conflict limits on it before touching the engine.
#pragma once

#include "src/base/governor.hpp"
#include "src/serve/job.hpp"

namespace kms {
struct KmsStats;
}  // namespace kms

namespace kms::serve {

/// Execute one job to completion. `governor` must outlive the call and
/// should be fresh (limits are armed from the spec; a tripped governor
/// degrades the run exactly like a CLI ^C).
JobReport run_job(const JobSpec& spec, ResourceGovernor& governor);

/// Copy every counter of a run (the three groups of
/// src/core/counters.hpp) into the report, each under its report key.
void fill_counters(const KmsStats& stats, JobReport* rep);

}  // namespace kms::serve

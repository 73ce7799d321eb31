// Wiring between the invariant checker and the Network surgery hooks.
//
// Two switches control self-checking:
//  * the KMS_CHECK_INVARIANTS CMake option compiles a self-check call
//    into every Network surgery op (reroute_source, remove_conn-family
//    ops, duplication, sweep, ...) and into the ends of the transform
//    passes, and arms the KMS loop's phase checkpoints in every run;
//  * `kmscli irr --check` (RunContext::check_invariants) arms the phase
//    checkpoints for one run in any build.
//
// A violation throws CheckFailure at the operation that introduced it.
#pragma once

namespace kms {

/// True in a build with the KMS_CHECK_INVARIANTS option on.
bool invariant_checks_enabled();

/// Install the checker as the Network self-check hook (idempotent,
/// no-op when invariant_checks_enabled() is false).
void install_invariant_self_checks();

/// Remove the hook (used by tests that deliberately corrupt networks).
void uninstall_invariant_self_checks();

}  // namespace kms

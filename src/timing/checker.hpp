// TimingChecker — the static-analysis audit layer over the timing
// subsystem (DESIGN.md §15).
//
// Two surfaces share the NL022–NL028 rule block:
//
//  * run_timing_rules — lint-style declared-data checks for kmslint and
//    `kmscli analyze`: NL022 (negative or non-finite declared delay /
//    input arrival — timing over such a network is meaningless) and
//    NL023 (a PO-unreachable gate whose arrival exceeds the network
//    delay bound: a stale cone that would inflate any naive bound that
//    maxed over all gates instead of the outputs).
//
//  * audit_timing_tables / audit_incremental_sta — invariant rules over
//    computed tables: arrival monotonic along live connections (NL024),
//    slack never negative beyond float-accumulation noise (NL025), PO
//    arrival bounded by the network delay (NL026), -infinity arrival
//    only on constants and constant-fed cones (NL027), and — the rule
//    the incremental engine's bit-identity contract hangs on — exact
//    equality between IncrementalSta's maintained arrival and suffix
//    tables and delay bound and a from-scratch compute_timing/
//    compute_suffix, plus a repair-order key that increases along
//    every live connection (NL028).
//
// The semantic rules use an epsilon: float addition is non-associative,
// so two different accumulation orders along a reconverging path differ
// by ulps even in a correct implementation. The NL028 divergence audit
// is exact — both sides evaluate identical kernels in identical order,
// so even a one-ulp mismatch means a missed dirty seed.
#pragma once

#include <cstddef>

#include "src/check/diagnostics.hpp"
#include "src/netlist/network.hpp"
#include "src/timing/incremental.hpp"
#include "src/timing/sta.hpp"

namespace kms {

/// Lint rules NL022/NL023 over declared delays and arrivals. Emits into
/// `out` up to `max_diagnostics` findings; `warnings` gates the
/// warning-severity NL023 (kmslint --no-warn). NL023 is skipped entirely
/// when NL022 fired: non-finite delays poison every arrival downstream.
void run_timing_rules(const Network& net, Diagnostics* out,
                      std::size_t max_diagnostics = 100, bool warnings = true);

/// Result of a timing-invariant audit.
struct TimingAudit {
  Diagnostics diagnostics;
  std::size_t gates_checked = 0;
  bool ok() const { return diagnostics.error_count() == 0; }
};

/// Semantic invariant rules NL024–NL027 over computed tables.
TimingAudit audit_timing_tables(const Network& net, const TimingTables& t,
                                double eps = 1e-9);

/// Full audit of an incremental engine: the semantic rules on a
/// from-scratch recompute, then exact (bitwise) comparison of every
/// maintained table, the delay bound and the order key against it
/// (NL028).
TimingAudit audit_incremental_sta(const Network& net,
                                  const IncrementalSta& sta,
                                  double eps = 1e-9);

/// audit_incremental_sta + throw CheckFailure naming `where` when any
/// error-severity finding fires — the timing arm of the
/// KMS_CHECK_INVARIANTS phase checkpoints and of --check.
void enforce_timing_invariants(const Network& net, const IncrementalSta& sta,
                               const char* where);

}  // namespace kms

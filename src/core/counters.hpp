// The run's counters, declared once.
//
// Three X-macro tables list every counter a KMS run reports: the loop
// group (KmsStats), the removal group (RedundancyRemovalResult) and the
// ATPG group (AtpgStats). Everything else is generated from them: the
// struct members, the pass-barrier merges, the checkpoint keys
// (`kms.<member>`, `rm.<member>`, `atpg.<member>`, src/recover/) and the
// JobReport fields and their copy from KmsStats (src/serve/). Adding a
// counter is one row here plus the line of engine code that counts it.
//
// A row is X(member, type, rule[, report key]):
//  * type — std::uint64_t, double, bool or std::string;
//  * rule — how two instances merge, and so the value a counter starts
//    at (the identity of its merge):
//      Sum — a tally, summed (starts at 0);
//      Max — a high-water mark (starts at 0);
//      Or  — a flag any contributor may raise (starts false);
//      And — a flag every contributor must keep (starts true);
//      Set — a measurement the run records once (starts empty); it has
//            no merge, so merging a group that holds one does not
//            compile;
//  * report key — the JobReport field, named only where it differs from
//    the member.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

namespace kms::counter {

struct Sum {
  template <class T> static T identity() { return T{}; }
  template <class T> static void merge(T& into, const T& v) { into += v; }
};
struct Max {
  template <class T> static T identity() { return T{}; }
  template <class T> static void merge(T& into, const T& v) {
    into = std::max(into, v);
  }
};
struct Or {
  template <class T> static T identity() { return false; }
  static void merge(bool& into, bool v) { into = into || v; }
};
struct And {
  template <class T> static T identity() { return true; }
  static void merge(bool& into, bool v) { into = into && v; }
};
struct Set {
  template <class T> static T identity() { return T{}; }
};

}  // namespace kms::counter

/// The report key of a row: its fourth column if present, else the member.
#define KMS_COUNTER_KEY(member, ...) \
  KMS_COUNTER_KEY_I(__VA_ARGS__ __VA_OPT__(, ) member, )
#define KMS_COUNTER_KEY_I(key, ...) key
#define KMS_COUNTER_STR(x) KMS_COUNTER_STR_I(x)
#define KMS_COUNTER_STR_I(x) #x

/// One member declaration per row, starting at its rule's identity.
#define KMS_COUNTER_DECL(member, type, rule, ...) \
  type member = ::kms::counter::rule::identity<type>();
/// Fold `other.member` into `member` by the row's rule.
#define KMS_COUNTER_MERGE(member, type, rule, ...) \
  ::kms::counter::rule::merge(member, other.member);

// ---- loop group: KmsStats (src/core/kms.hpp) -----------------------------
#define KMS_LOOP_COUNTERS(X)                                                  \
  X(iterations, std::uint64_t, Sum)       /* while-loop transformations */   \
  X(duplicated_gates, std::uint64_t, Sum) /* gates copied by duplication */  \
  X(constants_set, std::uint64_t, Sum)    /* first edges asserted constant */\
  /* SAT queries of the loop's path checks (Sensitizer::queries()) */        \
  X(sensitization_queries, std::uint64_t, Sum)                               \
  X(iteration_cap_hit, bool, Or)          /* loop stopped by max_iterations */\
  /* Why the loop stopped: "" while it runs (or for a run resumed past it  \
     before it recorded an exit), "sat" for the natural exit (some longest \
     path proved sensitizable), "unknown" for a resource-degraded exit     \
     (the verdict was conservatively treated as sensitizable; `degraded`   \
     is set alongside), "governor" when should_stop() tripped between      \
     iterations, "no-paths" when no IO-path remained, "iteration-cap"      \
     when max_iterations hit. */                                             \
  X(loop_exit, std::string, Set)                                             \
  /* Graceful degradation (set only when a governor ran, except degraded,  \
     which a proofless kUnknown exit also sets). */                          \
  X(unknown_queries, std::uint64_t, Sum)  /* solves stopped before verdict */\
  X(deadline_hit, bool, Or)               /* wall-clock limit reached */     \
  X(budget_exhausted, bool, Or)           /* global conflict/prop. budget */ \
  X(interrupted, bool, Or)                /* cooperative cancellation */     \
  X(degraded, bool, Or)                   /* a conservative fallback ran */  \
  /* Before/after columns of Table I. An exact flag is false when that     \
     computed delay is the topological upper bound computed_delay() fell   \
     back to (query budget or governor exhausted). */                        \
  X(initial_gates, std::uint64_t, Set)                                       \
  X(final_gates, std::uint64_t, Set)                                         \
  X(initial_topo_delay, double, Set)                                         \
  X(final_topo_delay, double, Set)                                           \
  X(initial_computed_delay, double, Set)                                     \
  X(final_computed_delay, double, Set)                                       \
  X(initial_computed_exact, bool, And)                                       \
  X(final_computed_exact, bool, And)                                         \
  X(initial_max_fanout, std::uint64_t, Set)                                  \
  X(final_max_fanout, std::uint64_t, Set)                                    \
  /* Incremental STA (src/timing/incremental.hpp). */                        \
  X(sta_applies, std::uint64_t, Sum)      /* per-edit dirty-cone repairs */  \
  X(sta_rebuilds, std::uint64_t, Sum)     /* full rebuilds (ctor+removal) */ \
  X(sta_gates_repaired, std::uint64_t, Sum) /* gate visits by repairs */     \
  /* Seed passes of the loop's persistent PathEnumerator, one per         \
     iteration, the initial construction included (so a resumed run, which \
     constructs where the uninterrupted run re-seeded, reports the same    \
     totals), and the gate visits they spent. */                             \
  X(sta_enum_reseeds, std::uint64_t, Sum)                                    \
  X(sta_enum_seed_visits, std::uint64_t, Sum)

// ---- removal group: RedundancyRemovalResult (src/atpg/redundancy.hpp) ----
#define KMS_REMOVAL_COUNTERS(X)                                               \
  /* redundant faults asserted constant */                                   \
  X(removed, std::uint64_t, Sum, redundancies_removed)                       \
  X(passes, std::uint64_t, Sum, removal_passes) /* fault-list scans */       \
  /* the scan stopped early on governor exhaustion */                        \
  X(aborted, bool, Or, removal_aborted)                                      \
  /* faults a per-ticket replay of the pass's random words detected */       \
  X(sim_dropped, std::uint64_t, Sum, removal_sim_dropped)                    \
  /* faults a stored SAT witness (run-wide or the lane's own) detected */    \
  X(witness_dropped, std::uint64_t, Sum, removal_witness_dropped)            \
  /* faults skipped via the cross-pass cache */                              \
  X(cache_hits, std::uint64_t, Sum, removal_cache_hits)                      \
  /* cached verdicts killed by removals */                                   \
  X(cache_invalidated, std::uint64_t, Sum, removal_cache_invalidated)        \
  /* Time in replay simulation / exact ATPG, summed over lanes: work, not  \
     latency, so a parallel run can exceed the wall clock. */                \
  X(sim_seconds, double, Sum, removal_sim_seconds)                           \
  X(sat_seconds, double, Sum, removal_sat_seconds)

// ---- ATPG group: AtpgStats (src/atpg/atpg.hpp) ---------------------------
#define KMS_ATPG_COUNTERS(X)                                                  \
  X(queries, std::uint64_t, Sum, removal_queries) /* generate_test calls */  \
  X(testable, std::uint64_t, Sum, removal_testable)                          \
  X(untestable, std::uint64_t, Sum, removal_untestable)                      \
  /* Queries the governor stopped before a verdict. Such faults are kept:  \
     an aborted query is never evidence of redundancy. */                    \
  X(unknown_queries, std::uint64_t, Sum, removal_unknown_queries)            \
  /* conflicts over every solve, aborted ones included */                    \
  X(sat_conflicts, std::uint64_t, Sum, removal_sat_conflicts)                \
  /* queries that reached the solver: queries == sat_solves +              \
     structural_shortcuts */                                                 \
  X(sat_solves, std::uint64_t, Sum, removal_sat_queries)                     \
  /* untestable verdicts proved structurally (the fault cone reaches no    \
     primary output), with no solver */                                      \
  X(structural_shortcuts, std::uint64_t, Sum, removal_structural_shortcuts)  \
  /* gates encoded into CNF, summed over solves (good-circuit support) */    \
  X(cone_gates_encoded, std::uint64_t, Sum, removal_cone_gates)              \
  /* largest single-query support set */                                    \
  X(max_cone_gates, std::uint64_t, Max, removal_max_cone_gates)

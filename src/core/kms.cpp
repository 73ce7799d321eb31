#include "src/core/kms.hpp"

#include <optional>
#include <stdexcept>
#include <string>

#include "src/base/log.hpp"
#include "src/check/checker.hpp"
#include "src/check/hooks.hpp"
#include "src/core/verdict.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/journal.hpp"
#include "src/timing/checker.hpp"
#include "src/timing/incremental.hpp"
#include "src/timing/path.hpp"

namespace kms {
namespace {

/// Section VI: the algorithm runs on simple gates only. Name the first
/// XOR/XNOR/MUX instead of transforming around it.
void require_simple_gates(const Network& net) {
  for (std::uint32_t i = 0; i < net.gate_capacity(); ++i) {
    const Gate& gt = net.gate(GateId(i));
    if (gt.dead || (gt.kind != GateKind::kXor && gt.kind != GateKind::kXnor &&
                    gt.kind != GateKind::kMux))
      continue;
    throw std::invalid_argument(
        "kms_make_irredundant: complex gate " +
        (gt.name.empty() ? "g" + std::to_string(i) : gt.name) + " (" +
        std::string(gate_kind_name(gt.kind)) +
        "); decompose_to_simple first");
  }
}

/// Duplicate the gates of `p` from its start up to and including index
/// `n_index` (the gate closest to the output with fanout > 1), and move
/// the on-path fanout edge of that gate to the duplicate. Returns the
/// rewritten path P' (all of whose gates have fanout exactly one).
/// The number of copied gates is added to *duplicated.
Path duplicate_prefix(Network& net, const Path& p, std::size_t n_index,
                      std::size_t* duplicated) {
  Path out = p;
  GateId prev_dup = GateId::invalid();
  for (std::size_t j = 0; j <= n_index; ++j) {
    const GateId orig = p.gates[j];
    // Pin position of the on-path fanin before any surgery on the dup.
    const std::size_t pin = net.pin_of(p.conns[j]);
    const GateId dup = net.duplicate_gate(orig);
    ++*duplicated;
    if (j > 0) {
      // The copied on-path fanin still points at the original previous
      // gate; reroute it to the previous duplicate.
      const ConnId copied = net.gate(dup).fanins[pin];
      net.reroute_source(copied, prev_dup);
    }
    out.conns[j] = net.gate(dup).fanins[pin];
    out.gates[j] = dup;
    prev_dup = dup;
  }
  // Move edge e — the fanout connection of gate n that lies on P — to be
  // the single fanout of n'.
  net.reroute_source(p.conns[n_index + 1], prev_dup);
  return out;
}

/// The constant-assertion step: set the first edge of P' to the value
/// that deletes the gate it feeds, then propagate.
void assert_first_edge_constant(Network& net, const Path& pp) {
  const GateKind k0 = net.gate(pp.gates[0]).kind;
  const bool value =
      has_controlling_value(k0) ? controlling_value(k0) : false;
  net.set_conn_constant(pp.conns[0], value);
  propagate_constants(net);
  collapse_buffers(net);
  net.sweep();
}

/// The structural surgery of one loop iteration on the unsensitizable
/// longest path `path`, shared by the live loop and the resume replay:
/// find n, the gate in P closest to the output with fanout > 1 (the
/// trailing kOutput marker is not a gate and has no fanout anyway);
/// duplicate P up to n; then assert the first edge of P' constant.
/// `between(out)` runs after the duplication and before the constant
/// assertion, with `out` already describing the whole transform — the
/// live loop journals and checkpoints there.
template <class Between>
KmsLoopTransform transform_path(Network& net, const Path& path,
                                Between&& between) {
  std::ptrdiff_t n_index = -1;
  for (std::ptrdiff_t i = static_cast<std::ptrdiff_t>(path.gates.size()) - 1;
       i >= 0; --i) {
    const GateId g = path.gates[static_cast<std::size_t>(i)];
    if (net.gate(g).kind == GateKind::kOutput) continue;
    if (net.live_fanout(g) > 1) {
      n_index = i;
      break;
    }
  }
  KmsLoopTransform out;
  std::size_t dup = 0;
  const Path pp =
      n_index >= 0
          ? duplicate_prefix(net, path, static_cast<std::size_t>(n_index),
                             &dup)
          : path;
  out.duplicated = dup;
  out.constant_conn = pp.conns[0].value();
  between(out);
  assert_first_edge_constant(net, pp);
  return out;
}

}  // namespace

KmsStats kms_make_irredundant(Network& net, const KmsOptions& opts) {
  KmsStats stats;
  const RunContext ctx = opts.context;
  ResourceGovernor* const gov = ctx.governor;
  // Diff the governor's counters so a reused governor (one bounding a
  // whole CLI run) attributes only this call's work to these stats.
  const GovernorReport gov_base = gov ? gov->report() : GovernorReport{};
  // Checkpoints between loop phases: catch an invariant violation at the
  // phase that introduced it instead of three transforms later.
  const bool checking = ctx.check_invariants || invariant_checks_enabled();
  const auto checkpoint = [&](const char* phase) {
    if (checking) enforce_invariants(net, phase);
  };
  checkpoint("kms:input");
  require_simple_gates(net);
  proof::ProofSession* const session = ctx.session;
  const KmsResumeState* const res = opts.resume;
  // Resumed run: the caller already replayed the journal prefix onto
  // `net` and restored the committed counters; skip straight to where
  // the crashed run left off. The initial delay/size columns were
  // measured before the crash and travel in the restored stats.
  if (res != nullptr) stats = res->stats;

  // The loop's timing engine: constructed once on the input (or after
  // the caller's replay, for resumed runs) and repaired in place
  // per edit. Every timing consumer below — the initial/final delay
  // columns, PathEnumerator's completion bounds, the sensitizer's
  // viability arrivals — reads these tables.
  IncrementalSta sta(net);
  // Audit the repaired tables against a from-scratch recompute wherever
  // the engine is synchronized (never between the surgery steps of one
  // iteration, where the tables are legitimately stale).
  const auto timing_checkpoint = [&](const char* phase) {
    if (checking) enforce_timing_invariants(net, sta, phase);
  };
  const auto measure = [&](double* topo, double* computed, bool* exact) {
    *topo = sta.delay();
    const StaSeed seed{&sta.arrival(), &sta.suffix()};
    const DelayReport r =
        computed_delay(net, opts.mode, opts.max_queries, gov, &seed);
    *computed = r.delay;
    *exact = r.exact;
  };
  // The engine's counters flow into stats continuously (they serialize
  // into every loop-phase checkpoint, not just the final result). A
  // resumed run hands the engine its restored totals, replacing the
  // attach-time constructor rebuild, which the uninterrupted run never
  // performed.
  if (res != nullptr) {
    IncrementalSta::Stats restored;
    restored.applies = stats.sta_applies;
    restored.rebuilds = stats.sta_rebuilds;
    restored.repaired = stats.sta_gates_repaired;
    sta.restore_stats(restored);
  }
  const auto sync_sta = [&] {
    const IncrementalSta::Stats& ss = sta.stats();
    stats.sta_applies = ss.applies;
    stats.sta_rebuilds = ss.rebuilds;
    stats.sta_gates_repaired = ss.repaired;
  };
  if (res == nullptr) {
    stats.initial_gates = net.count_gates();
    stats.initial_max_fanout = net.max_fanout();
    measure(&stats.initial_topo_delay, &stats.initial_computed_delay,
            &stats.initial_computed_exact);
    if (ctx.sink != nullptr) {
      // First resumable state: measured, zero iterations.
      sync_sta();
      recover::CommitPoint cp;
      cp.net = &net;
      cp.phase = "loop";
      cp.cursor = 0;
      cp.kms = &stats;
      ctx.sink->checkpoint(cp);
    }
  }

  const bool run_loop = res == nullptr || res->phase == "loop";
  // The enumerator persists across iterations and is re-seeded per
  // iteration instead of reconstructed (a full suffix recompute plus an
  // O(capacity) copy each time); its completion bounds ride the
  // engine's suffix table, repaired in place.
  std::optional<PathEnumerator> en;
  std::optional<Sensitizer> sens;
  while (run_loop && stats.iterations < opts.max_iterations) {
    // Bounded run: stop transforming the moment the governor trips.
    // Exiting the loop at any iteration is safe — the delay invariant
    // (Theorems 7.1/7.2) is maintained per iteration, not only at the
    // natural fixpoint — and the final removal phase below degrades on
    // its own terms (it only deletes *proved* redundancies).
    if (gov && gov->should_stop()) {
      stats.loop_exit = "governor";
      break;
    }
    // Fig. 3 tests whether ALL longest paths are unsensitizable before
    // transforming; the theorems, however, only require the *chosen*
    // path P to be a longest path that is not sensitizable (Theorem
    // 7.2's premise). So the loop examines one longest path per
    // iteration: if it sensitizes, some longest path is sensitizable
    // and the loop exits exactly as Fig. 3 would; if it does not,
    // transforming it is valid regardless of the other longest paths'
    // status (at worst we perform transformations Fig. 3 would have
    // skipped — each removes a false path and keeps both invariants).
    if (!en)
      en.emplace(net, sta.suffix());
    else
      en->reseed();
    // The initial construction counts as a seed pass too, so a resumed
    // run (which constructs a fresh enumerator where the uninterrupted
    // run re-seeded) reports the same totals.
    ++stats.sta_enum_reseeds;
    stats.sta_enum_seed_visits += en->last_seed_visits();

    std::optional<Path> chosen = en->next();
    if (!chosen) {
      stats.loop_exit = "no-paths";
      break;  // no IO-paths left at all
    }
    const Path path = std::move(*chosen);
    // One Sensitizer for the loop, retargeted per path: it encodes only
    // the fanin closure of the side inputs the path constrains, into
    // solver storage kept from the previous path. With a session it
    // captures the certificate, and the verdict reaches the journal
    // below only once it licenses a transform.
    if (!sens)
      sens.emplace(net, opts.mode, path, gov, &sta.arrival(),
                   /*capture=*/session != nullptr);
    else
      sens->retarget(path);
    SensitizeResult sres = sens->check(path);
    stats.sensitization_queries += sens->queries();
    // Only a *proved* kUnsat licenses the transformation (Theorem 7.2's
    // premise is that P is not sensitizable). kSat is the natural exit;
    // kUnknown degrades the same way — treat the path as sensitizable
    // and fall through to plain removal rather than transform on an
    // unproved premise.
    if (sres.verdict != sat::Result::kUnsat) {
      stats.loop_exit = verdict_name(sres.verdict);
      // A kUnknown exit is a conservative fallback even when no
      // governor is attached to attribute it (certificate-extraction
      // failures degrade this way too): record it as degradation so it
      // is never mistaken for the natural kSat exit.
      if (sres.verdict == sat::Result::kUnknown) stats.degraded = true;
      if (session)
        session->journal.add_path_giveup(verdict_name(sres.verdict));
      break;
    }
    if (session) {
      std::int64_t proof_id = -1;
      if (sres.certificate)
        proof_id = session->add_certificate(std::move(*sres.certificate));
      session->journal.add_path_unsens(format_path(net, path), proof_id);
    }
    KMS_LOG(kDebug) << "kms: transforming longest path (len=" << path.length
                    << "): " << format_path(net, path);

    // Duplicate P up to n, then set the first edge of P' to a constant —
    // the controlling value of the gate it feeds, which deletes that
    // gate — and propagate as far as possible, removing useless gates.
    // Fig. 3 re-tests "If P' is not statically sensitizable" between the
    // two. The test above already established it: P is not
    // sensitizable under the loop condition (and not-viable implies
    // not-statically-sensitizable), and by Theorem 7.1 the duplication
    // preserved every side-input function and path length, so P'
    // inherits the verdict. The surgery records its edit in `trace`,
    // from which the timing engine repairs its tables.
    TransformTrace trace;
    const TraceScope tracing(net, trace);
    const KmsLoopTransform t =
        transform_path(net, path, [&](const KmsLoopTransform& dup) {
          checkpoint("kms:duplicate_prefix");
          if (session && dup.duplicated > 0)
            session->journal.add_duplicate(dup.duplicated);
          if (session) session->journal.add_constant(dup.constant_conn);
        });
    stats.duplicated_gates += t.duplicated;
    sta.apply(trace);
    checkpoint("kms:constant_propagation");
    timing_checkpoint("kms:constant_propagation");
    ++stats.constants_set;
    ++stats.iterations;
    if (ctx.sink != nullptr) {
      // One loop iteration is one committed, replayable unit: every
      // step of it is in the journal (the unsens verdict, the
      // duplication, the constant) and the surgery is done.
      sync_sta();
      recover::CommitPoint cp;
      cp.net = &net;
      cp.phase = "loop";
      cp.cursor = stats.iterations;
      cp.kms = &stats;
      ctx.sink->commit(cp);
    }
  }

  stats.iteration_cap_hit = stats.iterations >= opts.max_iterations;
  if (run_loop && stats.loop_exit.empty() && stats.iteration_cap_hit)
    stats.loop_exit = "iteration-cap";
  if (opts.remove_remaining) {
    RedundancyRemovalOptions removal = opts.removal;
    // The run's context wins over whatever the nested options carried:
    // one knob configures governor, session, and worker count for the
    // whole call (the loop phases above are sequential by design — the
    // transform steps are a strict dependency chain).
    removal.context = ctx;
    RemovalResume rr;
    if (res != nullptr && res->phase == "removal" && res->cursor > 0) {
      rr.base = res->stats.removal;
      rr.rng_state = res->rng_state;
      removal.resume = &rr;
    }
    if (ctx.sink != nullptr &&
        (res == nullptr || res->phase != "removal")) {
      // Phase boundary: the loop is done (its exit step, if any, is in
      // the journal) and removal has not started. A resumed removal
      // phase already has this checkpoint on disk.
      sync_sta();
      recover::CommitPoint cp;
      cp.net = &net;
      cp.phase = "removal";
      cp.cursor = 0;
      cp.kms = &stats;
      ctx.sink->checkpoint(cp);
    }
    stats.removal = remove_redundancies(net, removal);
    checkpoint("kms:remove_redundancies");
    // The removal phase edits through its own (per-fault) traces that
    // are not aggregated here; one full rebuild resynchronizes the
    // tables — still far cheaper than the per-iteration passes the
    // engine saved across the loop.
    sta.rebuild();
    timing_checkpoint("kms:remove_redundancies");
  }

  stats.final_gates = net.count_gates();
  stats.final_max_fanout = net.max_fanout();
  measure(&stats.final_topo_delay, &stats.final_computed_delay,
          &stats.final_computed_exact);
  sync_sta();
  if (gov) {
    const GovernorReport gr = gov->report();
    // Added to a resumed run's restored count; OR-ing the flags likewise
    // keeps degradation observed before the crash.
    stats.unknown_queries += gr.unknown_results - gov_base.unknown_results;
    stats.deadline_hit = stats.deadline_hit || gr.deadline_hit;
    stats.budget_exhausted = stats.budget_exhausted || gr.budget_exhausted;
    stats.interrupted = stats.interrupted || gr.interrupted;
    stats.degraded = stats.degraded || stats.unknown_queries > 0 ||
                     stats.deadline_hit || stats.budget_exhausted ||
                     stats.interrupted;
  }
  return stats;
}

KmsLoopTransform kms_replay_loop_transform(Network& net) {
  // Mirrors one iteration of the loop above with the SAT query elided:
  // the journal being replayed recorded the unsensitizability verdict,
  // so only the structural surgery needs repeating. Path selection is a
  // pure function of the network, hence identical to the original run.
  PathEnumerator en(net);
  auto chosen = en.next();
  if (!chosen)
    throw std::runtime_error(
        "kms replay: no IO-path left to transform (journal does not match "
        "this network)");
  return transform_path(net, *chosen, [](const KmsLoopTransform&) {});
}

}  // namespace kms

#include "src/atpg/redundancy.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <numeric>
#include <optional>
#include <vector>

#include "src/atpg/atpg.hpp"
#include "src/atpg/fault_cache.hpp"
#include "src/atpg/fault_sim.hpp"
#include "src/base/parallel.hpp"
#include "src/netlist/transform.hpp"
#include "src/proof/drat.hpp"
#include "src/proof/journal.hpp"

namespace kms {
namespace {

using Clock = std::chrono::steady_clock;
using Seconds = std::chrono::duration<double>;

/// splitmix64, for decorrelating witness-perturbation rng streams from
/// the main scan rng (see witness_rng below).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Witness-perturbation rng for (pass, worker). Deliberately NOT the
/// main scan rng: witness perturbations only ever mark genuinely
/// testable faults, so their draws must not desynchronize the main
/// stream — which the kRandom scan order and the pre-drop stimulus are
/// derived from — between worker counts. With the streams separated,
/// every lane count sees the identical scan order and pre-drop patterns
/// in every pass.
Rng witness_rng(std::uint64_t seed, std::size_t pass, unsigned worker) {
  return Rng(mix64(seed ^ mix64(pass) ^ mix64(0xACEDull + worker)));
}

/// Scan-order permutation for one pass (consumes rng draws only for
/// kRandom — identically at every lane count).
std::vector<std::size_t> scan_order(std::size_t n, RemovalOrder order,
                                    Rng& rng) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  if (order == RemovalOrder::kReverse) {
    std::reverse(idx.begin(), idx.end());
  } else if (order == RemovalOrder::kRandom) {
    for (std::size_t i = idx.size(); i > 1; --i)
      std::swap(idx[i - 1], idx[rng.next_below(i)]);
  }
  return idx;
}

/// Speculative classification states, one per fault of the pass. Only
/// kUndecided entries ever reach a solver.
enum FaultState : std::uint8_t {
  kUndecided = 0,
  kCachedTestable,    ///< cross-pass cache hit
  kKnownTestable,     ///< random-word pre-drop
  kSatTestable,       ///< this pass's SAT model
  kWitnessTestable,   ///< detected by a stored SAT witness
  kProvedUntestable,  ///< exact UNSAT verdict (certificate if proving)
  kUnknownVerdict,    ///< solve stopped by the governor; fault kept
};

/// One lane's speculative output for one fault, written only by the
/// ticket's owner (the coordinator marks cache hits before the lanes
/// start); the pool barrier publishes it to the coordinator, which
/// fills the cache from it.
struct Speculation {
  std::uint8_t state = kUndecided;
  TestResult result;  ///< owner-written; meaningful once state is final
};

/// Word sets a lane simulates per pass, at most: the pass's random
/// words, the run-wide witness store and the lane's own witnesses all
/// count, so a lane's stored good values stay within this many
/// gate_capacity() arrays. Sets past the bound are not tried, which
/// only leaves more faults to SAT. The largest count the forward scan
/// reached on the MCNC substitutes and carry-skip adders was 113
/// (sduke2); see EXPERIMENTS.md §16.
constexpr std::size_t kMaxStoredSets = 128;

/// 64-pattern words of random stimulus each pass draws, replayed against
/// each fault a ticket reaches before exact ATPG (no effect on the
/// removed set). Without them the run-wide witness store and the lanes'
/// own witnesses still drop most faults, but they pay:
/// `e2ebench/run.py --trace 1` (seed 3, 4-thread x86 host) puts the
/// removal phase at about 170 ms with them and 274 ms without on csa,
/// and at about 227 and 406 ms on certify, where SAT queries grow 2.5x
/// and 2.1x without them. `kmscli irr` end to end, with / without (min
/// of 3): csa_16_4 0.220 / 0.255 s, smisex2 0.052 / 0.063 s, sduke2
/// 0.99 / 1.00 s, csa_8_2 x8 1.37 / 1.60 s.
constexpr std::size_t kRandomWords = 8;

/// Run-wide store of exact SAT witnesses, packed 64 patterns to a word
/// set, pass by pass in scan order. Witnesses are input assignments,
/// valid on any later network (removal keeps the inputs); the store is
/// not checkpointed, so a resumed run restarts it empty.
struct WitnessStore {
  std::vector<std::vector<std::uint64_t>> words;
  unsigned fill = 64;  ///< patterns used in words.back()

  void add(const std::vector<bool>& vector) {
    if (fill == 64) {
      words.emplace_back(vector.size(), 0);
      fill = 0;
    }
    // Unused patterns stay all-zero: an input assignment like any other,
    // so a detection there is as genuine as one by a stored witness.
    for (std::size_t i = 0; i < vector.size(); ++i)
      if (vector[i]) words.back()[i] |= 1ull << fill;
    ++fill;
  }
};

/// The word sets a lane tries on each undecided ticket before SAT, in
/// order: the pass's random words, the run-wide witness store, then the
/// perturbed witnesses of the lane's earlier SAT verdicts this pass.
/// Candidate c is the simulator's stored set c: each is simulated the
/// first time a ticket gets that far, so a pass whose scan ends early
/// simulates only the sets its faults needed.
struct LaneReplay {
  const std::vector<std::vector<std::uint64_t>>& random;
  const std::vector<std::vector<std::uint64_t>>& store;
  std::vector<std::vector<std::uint64_t>> own;

  std::size_t size() const {
    return random.size() + store.size() + own.size();
  }

  /// Index of the first candidate that detects `f`, or size() if none
  /// within kMaxStoredSets does.
  std::size_t first_detecting(FaultSimulator& sim, const Fault& f) {
    for (std::size_t c = 0; c < size(); ++c) {
      if (c == sim.stored_count()) {
        if (c == kMaxStoredSets) break;
        sim.store_words(candidate(c));
      }
      if (sim.detect_stored(f, c) != 0) return c;
    }
    return size();
  }

 private:
  const std::vector<std::uint64_t>& candidate(std::size_t c) const {
    if (c < random.size()) return random[c];
    c -= random.size();
    return c < store.size() ? store[c] : own[c - store.size()];
  }
};

/// Mark the pass's cache hits and draw its random pre-drop words. Words
/// are drawn only when some fault is not a cache hit: up to
/// kRandomWords of them, the governor polled before each, every
/// one from the main rng — the draws the kRandom scan order and a
/// checkpoint's rng state follow. The lanes simulate them lazily, only
/// against the faults their tickets reach.
std::vector<std::vector<std::uint64_t>> prepare_pass(
    const Network& net, const std::vector<Fault>& faults,
    ResourceGovernor* gov, const FaultCache& cache, Rng& rng,
    std::vector<Speculation>& spec, RedundancyRemovalResult& result) {
  bool pending = false;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (cache.contains(faults[i])) {
      spec[i].state = kCachedTestable;
      ++result.cache_hits;
    } else {
      pending = true;
    }
  }
  std::vector<std::vector<std::uint64_t>> words;
  if (!pending || net.inputs().empty()) return words;
  for (std::size_t w = 0; w < kRandomWords; ++w) {
    if (gov && gov->should_stop()) break;
    std::vector<std::uint64_t>& pi = words.emplace_back(net.inputs().size());
    for (auto& x : pi) x = rng.next_u64();
  }
  return words;
}

/// Journal one committed untestable verdict plus the deletion citing
/// its DRAT certificate. Verdicts reach the journal ONLY through here,
/// at commit time — never speculatively from inside a query — so an
/// aborted run cannot record a vacuous claim. Capture mode guarantees a
/// certificate behind every untestable verdict (certificate-less UNSATs
/// degrade to kUnknown).
void journal_deletion(proof::ProofSession& session, const std::string& what,
                      TestResult& test) {
  assert(test.certificate != nullptr);
  const std::int64_t id = session.add_certificate(std::move(*test.certificate));
  session.journal.add_fault_untestable(what, id);
  session.journal.add_delete(what, id);
}

/// Restore a committed pass-boundary state into the engine-local
/// (result, rng) pair. A cleared `aborted` lets the resumed run finish
/// what the crashed one could not.
void apply_resume(const RemovalResume& resume, RedundancyRemovalResult& result,
                  Rng& rng) {
  result = resume.base;
  result.aborted = false;
  if (!resume.rng_state.empty()) rng.load_state(resume.rng_state);
}

/// Announce one committed removal pass to the durability layer. Called
/// only between passes (coordinator thread, no worker running), so the
/// sink may walk the network freely.
void commit_pass(const RunContext& ctx, const Network& net, const Rng& rng,
                 const RedundancyRemovalResult& result) {
  if (ctx.sink == nullptr) return;
  recover::CommitPoint cp;
  cp.net = &net;
  cp.phase = "removal";
  cp.cursor = result.passes;
  cp.rng = &rng;
  cp.removal = &result;
  ctx.sink->commit(cp);
}

// ---- the removal engine --------------------------------------------------

/// Every removal pass classifies faults on `jobs` lanes of a pool (one
/// lane runs inline on the caller: no thread is spawned) and commits
/// the scan-order-first untestable fault at the pass barrier.
RedundancyRemovalResult remove_on_lanes(Network& net,
                                        const RedundancyRemovalOptions& opts,
                                        const RunContext& ctx,
                                        unsigned jobs) {
  RedundancyRemovalResult result;
  ResourceGovernor* const gov = ctx.governor;
  proof::ProofSession* const session = ctx.session;
  Rng rng(opts.seed);
  FaultCache cache;    // persists across passes; coordinator-only
  WitnessStore store;  // persists across passes
  if (opts.resume != nullptr) apply_resume(*opts.resume, result, rng);
  ThreadPool pool(jobs);
  // One simulator per lane for the whole run, reset at the lane's first
  // replay in a pass: its scratch is per thread, and a reset keeps the
  // stored sets' storage.
  std::vector<std::optional<FaultSimulator>> lane_sims(pool.size());
  for (;;) {
    if (gov && gov->should_stop()) {
      result.aborted = true;
      break;
    }
    ++result.passes;
    const auto faults = collapsed_faults(net);
    const std::size_t n = faults.size();
    std::vector<Speculation> spec(n);
    const std::vector<std::vector<std::uint64_t>> random_stimulus =
        prepare_pass(net, faults, gov, cache, rng, spec, result);
    const std::vector<std::size_t> order = scan_order(n, opts.order, rng);

    // Lowest scan rank proved untestable so far. Only ever decreases, so
    // a lane may safely skip any ticket ranked above it: that fault can
    // no longer be the pass's first untestable verdict.
    std::atomic<std::size_t> best_rank{n};
    std::atomic<bool> aborted{false};
    TicketQueue tickets(n);
    std::vector<RedundancyRemovalResult> lane_stats(pool.size());

    // Snapshot the pass index for lane rng seeding: lanes must not read
    // the coordinator-owned result struct.
    const std::size_t passes_now = result.passes;
    pool.run([&](unsigned w) {
      RedundancyRemovalResult& ws = lane_stats[w];
      // Same governor (thread-safe), never the session: lanes capture
      // certificates; only the coordinator journals.
      Atpg atpg(net, gov);
      if (session) atpg.set_proof_capture(true);
      Rng wrng = witness_rng(opts.seed, passes_now, w);
      LaneReplay replay{random_stimulus, store.words, {}};
      FaultSimulator* sim = nullptr;  // lane_sims[w], once reset this pass
      for (;;) {
        const std::size_t k = tickets.next();
        if (k >= n) break;
        // Skips come before the governor poll: a lane that has just
        // proved the pass's first untestable fault drains the tickets
        // behind it without tripping the abort, so that proof commits.
        if (k > best_rank.load(std::memory_order_relaxed)) continue;
        const std::size_t i = order[k];
        Speculation& s = spec[i];
        if (s.state != kUndecided) continue;
        // Replay the stored word sets first. Any detection is positive
        // proof of testability, so the fault never reaches the solver;
        // the sets a lane holds cannot change which fault commits.
        if (replay.size() != 0) {
          const auto t0 = Clock::now();
          if (!sim) {
            if (lane_sims[w])
              lane_sims[w]->reset();
            else
              lane_sims[w].emplace(net);
            sim = &*lane_sims[w];
          }
          const std::size_t c = replay.first_detecting(*sim, faults[i]);
          ws.sim_seconds += Seconds(Clock::now() - t0).count();
          if (c < replay.size()) {
            if (c < random_stimulus.size()) {
              s.state = kKnownTestable;
              ++ws.sim_dropped;
            } else {
              s.state = kWitnessTestable;
              ++ws.witness_dropped;
            }
            continue;
          }
        }
        if (gov && gov->should_stop()) {
          aborted.store(true, std::memory_order_relaxed);
          break;
        }
        const auto t0 = Clock::now();
        TestResult test = atpg.generate_test(faults[i]);
        ws.sat_seconds += Seconds(Clock::now() - t0).count();
        if (test.outcome == TestOutcome::kUnknown) {
          // Aborted query: the fault might be testable; keep it (the
          // barrier never caches it — an abort is not a verdict).
          s.state = kUnknownVerdict;
          continue;
        }
        if (test.outcome == TestOutcome::kUntestable) {
          s.result = std::move(test);
          s.state = kProvedUntestable;
          std::size_t cur = best_rank.load(std::memory_order_relaxed);
          while (k < cur && !best_rank.compare_exchange_weak(
                                cur, k, std::memory_order_relaxed))
            ;
          continue;
        }
        // Testable: let the model plus 63 random perturbations of it
        // join the sets the lane's later tickets try (pattern 0 keeps
        // the exact witness). The lane-local rng cannot change which
        // fault commits.
        s.state = kSatTestable;
        if (test.vector && replay.size() < kMaxStoredSets)
          replay.own.push_back(witness_words(*test.vector, wrng));
        s.result = std::move(test);
      }
      ws.atpg = atpg.stats();
    });

    // ---- pass barrier: the single stats merge point ----
    for (const RedundancyRemovalResult& lane : lane_stats) result.merge(lane);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = order[k];
      const std::uint8_t state = spec[i].state;
      // Every new testable verdict of the pass joins the cache, and
      // every exact model the run-wide store.
      if (state == kKnownTestable || state == kWitnessTestable ||
          state == kSatTestable)
        cache.insert(faults[i], fault_source(net, faults[i]));
      if (state == kSatTestable && spec[i].result.vector)
        store.add(*spec[i].result.vector);
      if (session && state == kUnknownVerdict)
        session->journal.add_fault_unknown(format_fault(net, faults[i]));
    }
    // The scan-order-first untestable fault commits once every fault
    // ranked before it has a verdict (kUnknown included: such a fault
    // is kept and the scan moves on). That holds whenever no lane
    // stopped early, and also when the governor tripped right after the
    // proof; the next pass's head then ends the run. Otherwise the pass
    // commits nothing and the run ends: fully testable, or stopped —
    // every removal already applied was individually proved, so the
    // network is a correct partial result.
    const std::size_t best = best_rank.load(std::memory_order_relaxed);
    bool commit = best < n;
    for (std::size_t k = 0; commit && k < best; ++k)
      commit = spec[order[k]].state != kUndecided;
    if (!commit) {
      result.aborted = aborted.load(std::memory_order_relaxed) ||
                       (gov && gov->should_stop());
      break;
    }

    // ---- deterministic commit: the scan-order-first untestable fault,
    // whatever the lane count ----
    const std::size_t chosen = order[best];
    const Fault& fault = faults[chosen];
    assert(spec[chosen].state == kProvedUntestable);
    if (session)
      journal_deletion(*session, format_fault(net, fault),
                       spec[chosen].result);
    TransformTrace trace;
    {
      const TraceScope tracing(net, trace);
      apply_redundancy_removal(net, fault);
      simplify(net);
    }
    ++result.removed;
    result.cache_invalidated += cache.invalidate(net, trace);
    // Speculative verdicts beyond `chosen` are re-queued implicitly:
    // testable ones persist only through the cache (which the edit
    // region just invalidated where stale) and untestable ones are
    // discarded entirely — the next pass re-proves any that remain.
    // Commit point: pass barrier passed, removal applied, journal
    // written — and no lane is running, so the sink sees quiescent
    // state (a checkpoint can never land mid-speculation).
    commit_pass(ctx, net, rng, result);
  }
  return result;
}

}  // namespace

void apply_redundancy_removal(Network& net, const Fault& fault) {
  if (fault.site == Fault::Site::kStem) {
    if (net.gate(fault.gate).kind == GateKind::kInput) {
      // A primary input stays part of the interface; assert the stuck
      // value on its fanout wires instead of replacing the pin.
      auto fanouts = net.gate(fault.gate).fanouts;  // copy: we reroute
      for (ConnId c : fanouts) net.set_conn_constant(c, fault.stuck);
    } else {
      net.convert_to_constant(fault.gate, fault.stuck);
    }
  } else {
    net.set_conn_constant(fault.conn, fault.stuck);
  }
}

RedundancyRemovalResult remove_redundancies(
    Network& net, const RedundancyRemovalOptions& opts) {
  // Each commit's cleanup folds constants on simple gates only; reject
  // a MUX before the first commit rather than stop half way.
  require_simple_gates(net, {GateKind::kMux}, "remove_redundancies");
  const RunContext ctx = opts.context;
  RedundancyRemovalResult result =
      remove_on_lanes(net, opts, ctx, resolve_jobs(ctx.jobs));
  if (result.aborted && ctx.session)
    ctx.session->journal.mark_partial(
        "redundancy removal stopped early: resource governor exhausted");
  return result;
}

}  // namespace kms

#include "src/sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/base/governor.hpp"

namespace kms::sat {
namespace {

/// Luby restart sequence: 1,1,2,1,1,2,4,...
std::uint64_t luby(std::uint64_t i) {
  std::uint64_t k = 1;
  while ((1ull << k) - 1 < i + 1) ++k;
  while ((1ull << (k - 1)) - 1 != i) {
    i = i - ((1ull << (k - 1)) - 1);
    k = 1;
    while ((1ull << k) - 1 < i + 1) ++k;
  }
  return 1ull << (k - 1);
}

}  // namespace

Solver::Solver() = default;

void Solver::reset() {
  ok_ = true;
  arena_.clear();
  clauses_.clear();
  learnts_.clear();
  // Lists past 2 * num_vars() are already empty (emptied by an earlier
  // reset or never used); the inner vectors keep their storage.
  for (std::size_t i = 0; i < 2 * assigns_.size(); ++i) watches_[i].clear();
  assigns_.clear();
  polarity_.clear();
  level_.clear();
  reason_.clear();
  trail_.clear();
  trail_lim_.clear();
  qhead_ = 0;
  activity_.clear();
  var_inc_ = 1.0;
  cla_inc_ = 1.0;
  heap_pos_.clear();
  heap_.clear();
  assumptions_.clear();
  model_.clear();
  seen_.clear();
  reuse_model_ = false;
  model_current_ = false;
  governor_ = nullptr;
  proof_ = nullptr;
  charged_propagations_ = 0;
  max_learnts_ = 0;
  stats_ = SolverStats{};
}

Var Solver::new_var() {
  const Var v = static_cast<Var>(assigns_.size());
  assigns_.push_back(Value::kUnknown);
  polarity_.push_back(true);  // default phase: negative (MiniSat tradition)
  level_.push_back(0);
  reason_.push_back(kNullCRef);
  activity_.push_back(0.0);
  heap_pos_.push_back(-1);
  seen_.push_back(0);
  model_.push_back(Value::kUnknown);
  if (watches_.size() < 2 * assigns_.size())
    watches_.resize(2 * assigns_.size());
  heap_insert(v);
  return v;
}

Solver::CRef Solver::alloc_clause(const std::vector<Lit>& lits, bool learnt) {
  const CRef c = static_cast<CRef>(arena_.size());
  ClauseHeader h;
  h.size = static_cast<std::uint32_t>(lits.size());
  h.learnt = learnt ? 1 : 0;
  h.reloced = 0;
  arena_.push_back(0);
  header(c) = h;
  if (learnt) arena_.push_back(0);  // activity slot
  for (Lit l : lits) arena_.push_back(static_cast<std::uint32_t>(l.index()));
  if (learnt) clause_act(c) = 0.0f;
  return c;
}

void Solver::attach_clause(CRef c) {
  const Lit* lits = clause_lits(c);
  assert(header(c).size >= 2);
  watches_[(~lits[0]).index()].push_back(Watcher{c, lits[1]});
  watches_[(~lits[1]).index()].push_back(Watcher{c, lits[0]});
}

void Solver::detach_clause(CRef c) {
  const Lit* lits = clause_lits(c);
  for (int i = 0; i < 2; ++i) {
    auto& ws = watches_[(~lits[i]).index()];
    for (std::size_t j = 0; j < ws.size(); ++j) {
      if (ws[j].cref == c) {
        ws[j] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

void Solver::remove_clause(CRef c) {
  if (proof_) {
    const Lit* lits = clause_lits(c);
    deleted_.assign(lits, lits + header(c).size);
    proof_->on_delete(deleted_);
  }
  detach_clause(c);
  header(c).reloced = 1;  // tombstone; arena space is not reclaimed
}

bool Solver::add_clause(std::span<const Lit> given) {
  model_current_ = false;
  if (!ok_) return false;
  assert(decision_level() == 0);
  std::vector<Lit>& lits = add_sorted_;
  lits.assign(given.begin(), given.end());
  std::sort(lits.begin(), lits.end());
  // Log the clause as given (only sorted), before root-level
  // simplification: the certificate's formula must be what the caller
  // stated, not the solver's derived form.
  if (proof_) proof_->on_original(lits);
  // Strip duplicates, satisfied clauses, false literals.
  std::vector<Lit>& out = add_kept_;
  out.clear();
  Lit prev = Lit::from_index(-2);
  for (Lit l : lits) {
    if (value(l) == Value::kTrue || l == ~prev) return true;  // satisfied
    if (value(l) == Value::kFalse || l == prev) continue;
    out.push_back(l);
    prev = l;
  }
  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    enqueue(out[0], kNullCRef);
    ok_ = (propagate() == kNullCRef);
    return ok_;
  }
  const CRef c = alloc_clause(out, /*learnt=*/false);
  clauses_.push_back(c);
  attach_clause(c);
  return true;
}

void Solver::enqueue(Lit l, CRef reason) {
  assert(value(l) == Value::kUnknown);
  assigns_[l.var()] = l.sign() ? Value::kFalse : Value::kTrue;
  level_[l.var()] = decision_level();
  reason_[l.var()] = reason;
  trail_.push_back(l);
}

Solver::CRef Solver::propagate() {
  CRef conflict = kNullCRef;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    auto& ws = watches_[p.index()];
    std::size_t i = 0, j = 0;
    while (i < ws.size()) {
      const Watcher w = ws[i];
      if (value(w.blocker) == Value::kTrue) {
        ws[j++] = ws[i++];
        continue;
      }
      const CRef c = w.cref;
      Lit* lits = clause_lits(c);
      const std::uint32_t size = header(c).size;
      // Ensure the false literal (~p) is at position 1.
      const Lit not_p = ~p;
      if (lits[0] == not_p) std::swap(lits[0], lits[1]);
      assert(lits[1] == not_p);
      ++i;
      // 0th watch true: keep the watcher with a fresher blocker.
      if (value(lits[0]) == Value::kTrue) {
        ws[j++] = Watcher{c, lits[0]};
        continue;
      }
      // Find a new literal to watch.
      bool moved = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value(lits[k]) != Value::kFalse) {
          std::swap(lits[1], lits[k]);
          watches_[(~lits[1]).index()].push_back(Watcher{c, lits[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Clause is unit or conflicting.
      ws[j++] = Watcher{c, lits[0]};
      if (value(lits[0]) == Value::kFalse) {
        conflict = c;
        qhead_ = trail_.size();
        while (i < ws.size()) ws[j++] = ws[i++];
        break;
      }
      enqueue(lits[0], c);
    }
    ws.resize(j);
    if (conflict != kNullCRef) break;
  }
  return conflict;
}

void Solver::bump_var(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (auto& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[v] >= 0) heap_sift_up(static_cast<std::size_t>(heap_pos_[v]));
}

void Solver::bump_clause(CRef c) {
  float& act = clause_act(c);
  act += static_cast<float>(cla_inc_);
  if (act > 1e20f) {
    for (CRef l : learnts_)
      if (!header(l).reloced) clause_act(l) *= 1e-20f;
    cla_inc_ *= 1e-20;
  }
}

bool Solver::lit_redundant(Lit l, std::uint32_t ab_levels) {
  // Stack-based check whether l is implied by other literals marked in
  // seen_ — standard learned-clause minimization. On success the marks
  // added here are kept (memoization) and recorded in to_clear_; on
  // failure they are undone so a failed proof can't poison later checks.
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  std::vector<Var>& added = redundant_added_;
  added.clear();
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    const CRef r = reason_[q.var()];
    if (r == kNullCRef) {
      for (Var v : added) seen_[v] = 0;
      return false;
    }
    const Lit* lits = clause_lits(r);
    const std::uint32_t size = header(r).size;
    for (std::uint32_t k = 0; k < size; ++k) {
      const Lit p = lits[k];
      if (p.var() == q.var() || seen_[p.var()] || level_[p.var()] == 0)
        continue;
      // Abstraction check: if p's level is outside the learned clause's
      // level set, l cannot be redundant.
      if (reason_[p.var()] == kNullCRef ||
          ((1u << (level_[p.var()] & 31)) & ab_levels) == 0) {
        for (Var v : added) seen_[v] = 0;
        return false;
      }
      seen_[p.var()] = 1;
      added.push_back(p.var());
      analyze_stack_.push_back(p);
    }
  }
  to_clear_.insert(to_clear_.end(), added.begin(), added.end());
  return true;
}

void Solver::analyze(CRef conflict, std::vector<Lit>& learnt, int& out_level) {
  learnt.clear();
  learnt.push_back(Lit());  // slot for the asserting literal
  int counter = 0;
  Lit p = Lit::from_index(-2);
  CRef reason = conflict;
  std::size_t index = trail_.size();
  std::vector<Var>& to_clear = to_clear_;
  to_clear.clear();

  do {
    assert(reason != kNullCRef);
    if (header(reason).learnt) bump_clause(reason);
    const Lit* lits = clause_lits(reason);
    const std::uint32_t size = header(reason).size;
    for (std::uint32_t k = (p.index() == -2 ? 0 : 1); k < size; ++k) {
      const Lit q = lits[k];
      if (seen_[q.var()] || level_[q.var()] == 0) continue;
      seen_[q.var()] = 1;
      to_clear.push_back(q.var());
      bump_var(q.var());
      if (level_[q.var()] >= decision_level())
        ++counter;
      else
        learnt.push_back(q);
    }
    // Walk back the trail to the next marked literal.
    while (!seen_[trail_[index - 1].var()]) --index;
    p = trail_[--index];
    reason = reason_[p.var()];
    seen_[p.var()] = 0;
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;

  // Minimize: drop literals implied by the rest of the clause.
  std::uint32_t ab_levels = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i)
    ab_levels |= 1u << (level_[learnt[i].var()] & 31);
  std::size_t out = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (reason_[learnt[i].var()] == kNullCRef ||
        !lit_redundant(learnt[i], ab_levels))
      learnt[out++] = learnt[i];
  }
  learnt.resize(out);

  // Find the backtrack level: max level among learnt[1..].
  out_level = 0;
  if (learnt.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i)
      if (level_[learnt[i].var()] > level_[learnt[max_i].var()]) max_i = i;
    std::swap(learnt[1], learnt[max_i]);
    out_level = level_[learnt[1].var()];
  }

  for (Var v : to_clear) seen_[v] = 0;
}

void Solver::cancel_until(int level) {
  if (decision_level() <= level) return;
  const std::size_t lim = trail_lim_[level];
  for (std::size_t i = trail_.size(); i-- > lim;) {
    const Var v = trail_[i].var();
    assigns_[v] = Value::kUnknown;
    polarity_[v] = trail_[i].sign();
    reason_[v] = kNullCRef;
    if (heap_pos_[v] < 0) heap_insert(v);
  }
  trail_.resize(lim);
  trail_lim_.resize(level);
  qhead_ = trail_.size();
}

Lit Solver::pick_branch() {
  while (!heap_empty()) {
    const Var v = heap_pop();
    if (value(v) == Value::kUnknown) return Lit(v, polarity_[v]);
  }
  return Lit::from_index(-2);
}

void Solver::reduce_db() {
  // Sort learned clauses by activity and drop the lower half, keeping
  // clauses that are reasons for current assignments and binary clauses.
  std::vector<CRef>& live = reduce_live_;
  live.clear();
  for (CRef c : learnts_)
    if (!header(c).reloced) live.push_back(c);
  std::sort(live.begin(), live.end(), [this](CRef a, CRef b) {
    return clause_act(a) < clause_act(b);
  });
  auto is_reason = [this](CRef c) {
    const Lit l0 = clause_lits(c)[0];
    return value(l0) == Value::kTrue && reason_[l0.var()] == c;
  };
  std::size_t removed = 0;
  for (std::size_t i = 0; i < live.size() / 2; ++i) {
    const CRef c = live[i];
    if (header(c).size <= 2 || is_reason(c)) continue;
    remove_clause(c);
    ++removed;
  }
  stats_.removed_learned += removed;
  learnts_.erase(std::remove_if(learnts_.begin(), learnts_.end(),
                                [this](CRef c) { return header(c).reloced; }),
                 learnts_.end());
}

Result Solver::search() {
  std::uint64_t conflicts_this_restart = 0;
  std::uint64_t restart_limit = 100 * luby(stats_.restarts);
  std::vector<Lit>& learnt = learnt_;

  for (;;) {
    const CRef conflict = propagate();
    if (conflict != kNullCRef) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (decision_level() == 0) return Result::kUnsat;
      int back_level = 0;
      analyze(conflict, learnt, back_level);
      // Never backtrack past the assumptions: if the asserting level is
      // inside the assumption prefix, the conflict may depend on the
      // assumptions; backtracking to that level and enqueueing is still
      // sound because analyze() produced a clause asserting at back_level.
      cancel_until(back_level);
      // Every learned clause is a RUP consequence of the clause database
      // alone (assumptions are decisions; they appear negated inside the
      // clause, never as premises), so it is loggable unconditionally.
      if (proof_) proof_->on_learn(learnt);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNullCRef);
      } else {
        const CRef c = alloc_clause(learnt, /*learnt=*/true);
        learnts_.push_back(c);
        ++stats_.learned;
        attach_clause(c);
        bump_clause(c);
        enqueue(learnt[0], c);
      }
      decay_var_activity();
      cla_inc_ /= 0.999;
      if (governor_) {
        governor_->charge(1, stats_.propagations - charged_propagations_);
        charged_propagations_ = stats_.propagations;
        if (governor_->should_stop()) return Result::kUnknown;
      }
      continue;
    }

    if (conflicts_this_restart >= restart_limit) {
      ++stats_.restarts;
      cancel_until(0);
      conflicts_this_restart = 0;
      restart_limit = 100 * luby(stats_.restarts);
      continue;
    }
    if (static_cast<double>(learnts_.size()) > max_learnts_) {
      reduce_db();
      max_learnts_ *= 1.1;
    }

    // Establish assumptions, one decision level each.
    Lit next = Lit::from_index(-2);
    while (decision_level() < static_cast<int>(assumptions_.size())) {
      const Lit a = assumptions_[decision_level()];
      if (value(a) == Value::kTrue) {
        trail_lim_.push_back(trail_.size());  // dummy level
      } else if (value(a) == Value::kFalse) {
        return Result::kUnsat;  // conflicts with the assumptions
      } else {
        next = a;
        break;
      }
    }
    if (next.index() == -2) {
      ++stats_.decisions;
      next = pick_branch();
      if (next.index() == -2) return Result::kSat;  // all assigned
    }
    trail_lim_.push_back(trail_.size());
    enqueue(next, kNullCRef);
  }
}

Result Solver::solve(const std::vector<Lit>& assumptions) {
  // Segment the proof per solve: the sink resets its conclusion state
  // here, so a second query on a reused solver never inherits the
  // previous query's UNSAT conclusion (its lemmas, being consequences of
  // the clause database alone, legitimately carry over).
  if (proof_) proof_->on_solve_begin(assumptions);
  if (!ok_) {
    // Root-level contradiction from add_clause: UNSAT regardless of the
    // assumptions, and the recorded formula alone propagates to conflict.
    if (proof_) proof_->on_solve_end(Result::kUnsat);
    return Result::kUnsat;
  }
  charged_propagations_ = stats_.propagations;
  if (governor_) {
    const std::uint64_t q = governor_->begin_query();
    // Exhausted resources (or an injected fault) abort before any work:
    // the caller sees kUnknown and must take its conservative fallback.
    if (governor_->inject_abort(q) || governor_->should_stop()) {
      governor_->note_unknown();
      if (proof_) proof_->on_solve_end(Result::kUnknown);
      return Result::kUnknown;
    }
  }
  if (reuse_model_ && proof_ == nullptr && model_current_ &&
      std::all_of(assumptions.begin(), assumptions.end(), [&](Lit a) {
        return (model_[a.var()] ^ a.sign()) == Value::kTrue;
      }))
    return Result::kSat;
  assumptions_ = assumptions;
  max_learnts_ = std::max<double>(4000.0, 0.3 * clauses_.size());
  const Result r = search();
  model_current_ = r == Result::kSat;
  if (r == Result::kSat)
    for (std::size_t v = 0; v < assigns_.size(); ++v)
      model_[v] = assigns_[v];
  cancel_until(0);
  assumptions_.clear();
  if (governor_) {
    governor_->charge(0, stats_.propagations - charged_propagations_);
    charged_propagations_ = stats_.propagations;
    if (r == Result::kUnknown) governor_->note_unknown();
  }
  if (proof_) proof_->on_solve_end(r);
  return r;
}

// ---- activity heap ----------------------------------------------------------

void Solver::heap_insert(Var v) {
  heap_pos_[v] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_.size() - 1);
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_sift_down(0);
  }
  return top;
}

void Solver::heap_sift_up(std::size_t i) {
  const Var v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<std::int32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::int32_t>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const Var v = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= heap_.size()) break;
    if (child + 1 < heap_.size() &&
        activity_[heap_[child + 1]] > activity_[heap_[child]])
      ++child;
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = static_cast<std::int32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<std::int32_t>(i);
}

}  // namespace kms::sat

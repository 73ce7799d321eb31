// CDCL SAT solver.
//
// Conflict-driven clause learning with two-watched-literal propagation,
// first-UIP learning with recursive clause minimization, VSIDS branching
// with phase saving, Luby restarts, and activity-driven learned-clause
// reduction. Supports incremental solving under assumptions, which is how
// the rest of the library asks its questions: "is this fault testable?",
// "is this path statically sensitizable?", "are these circuits
// equivalent?" are all SAT calls.
//
// The implementation follows the MiniSat architecture, written from
// scratch for this project.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace kms {
class ResourceGovernor;
}

namespace kms::sat {

using Var = std::int32_t;

/// A literal: variable with sign. Encoded as 2*var + (negated ? 1 : 0).
class Lit {
 public:
  Lit() : x_(-2) {}
  Lit(Var v, bool negated) : x_(2 * v + (negated ? 1 : 0)) {}

  Var var() const { return x_ >> 1; }
  bool sign() const { return x_ & 1; }  // true = negated
  Lit operator~() const { return from_index(x_ ^ 1); }
  std::int32_t index() const { return x_; }

  static Lit from_index(std::int32_t idx) {
    Lit l;
    l.x_ = idx;
    return l;
  }

  friend bool operator==(Lit a, Lit b) { return a.x_ == b.x_; }
  friend bool operator!=(Lit a, Lit b) { return a.x_ != b.x_; }
  friend bool operator<(Lit a, Lit b) { return a.x_ < b.x_; }

 private:
  std::int32_t x_;
};

/// Positive literal of v.
inline Lit mk_lit(Var v, bool negated = false) { return Lit(v, negated); }

enum class Value : std::uint8_t { kFalse = 0, kTrue = 1, kUnknown = 2 };

inline Value operator^(Value v, bool flip) {
  if (v == Value::kUnknown) return v;
  return static_cast<Value>(static_cast<std::uint8_t>(v) ^ (flip ? 1 : 0));
}

enum class Result { kSat, kUnsat, kUnknown };

/// Observer for proof logging (DRAT). The solver reports every original
/// clause it is given, every learned clause (each one a reverse-unit-
/// propagation consequence of the clause database at that moment), every
/// learned-clause deletion, and the begin/end of every solve() call.
///
/// The sink is deliberately a pure interface: the proof store and the
/// certificate checker live in src/proof/ and share no code with the
/// solver's propagation loop, so a solver bug cannot silently validate
/// its own proofs.
class ProofSink {
 public:
  virtual ~ProofSink() = default;
  virtual void on_original(const std::vector<Lit>& clause) = 0;
  virtual void on_learn(const std::vector<Lit>& clause) = 0;
  virtual void on_delete(const std::vector<Lit>& clause) = 0;
  /// A solve() begins under `assumptions`. Implementations must reset any
  /// per-solve conclusion state here: a certificate extracted after this
  /// point must never inherit the previous query's UNSAT conclusion.
  virtual void on_solve_begin(const std::vector<Lit>& assumptions) = 0;
  virtual void on_solve_end(Result result) = 0;
};

struct SolverStats {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned = 0;
  std::uint64_t removed_learned = 0;
};

class Solver {
 public:
  Solver();

  /// Return to the freshly constructed state: no variables, clauses or
  /// learnts; no governor, proof sink or model reuse;
  /// zeroed stats and activity increments. Every buffer keeps its
  /// capacity (clause arena, watch lists, per-variable arrays, heap,
  /// trail, scratch), so an owner that asks many small questions pays
  /// for its storage once. A reset solver numbers variables, stores
  /// clauses and searches exactly as a new one.
  void reset();

  /// Allocate a fresh variable; returns its index.
  Var new_var();
  std::size_t num_vars() const { return assigns_.size(); }

  /// Add a clause (ORed literals). Returns false if the formula became
  /// trivially unsatisfiable (empty clause / conflicting units at the
  /// root level).
  /// The literals are copied into solver-owned scratch, so short
  /// clauses add without a heap allocation.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  bool add_clause(Lit a) { return add_clause(std::span<const Lit>(&a, 1)); }
  bool add_clause(Lit a, Lit b) {
    const Lit lits[] = {a, b};
    return add_clause(lits);
  }
  bool add_clause(Lit a, Lit b, Lit c) {
    const Lit lits[] = {a, b, c};
    return add_clause(lits);
  }

  /// Solve under the given assumptions. kUnknown only if an attached
  /// governor's resources were exhausted (or the governor injected a
  /// test fault); the model is invalid and callers must fall back
  /// conservatively — kUnknown is never evidence of unsatisfiability.
  Result solve(const std::vector<Lit>& assumptions = {});

  /// Model access (valid after solve() returned kSat).
  Value model_value(Var v) const { return model_[v]; }
  bool model_bool(Var v) const { return model_[v] == Value::kTrue; }

  /// Attach a resource governor (shared deadline, global budgets,
  /// cooperative interrupt, fault injection). Consulted at every solve()
  /// entry and at every conflict; exhaustion yields kUnknown. Ownership
  /// stays with the caller; pass nullptr to detach.
  void set_governor(ResourceGovernor* governor) { governor_ = governor; }

  /// Attach a DRAT proof sink (nullptr detaches). Must be attached
  /// before the first add_clause for the emitted certificate's formula
  /// to be complete. Ownership stays with the caller.
  void set_proof(ProofSink* proof) { proof_ = proof; }

  /// Let solve() return kSat without searching when the previous search
  /// ended kSat, no clause has been added since, and its model already
  /// satisfies every assumption. The verdict is the one a search would
  /// reach; the model it leaves may differ. Governor accounting at
  /// solve() entry is unchanged. Has no effect while a proof sink is
  /// attached. Off by default.
  void set_model_reuse(bool on) { reuse_model_ = on; }

  const SolverStats& stats() const { return stats_; }

  /// True if the clause database is already unsatisfiable at level 0.
  bool inconsistent() const { return !ok_; }

 private:
  using CRef = std::uint32_t;
  static constexpr CRef kNullCRef = 0xFFFFFFFF;

  struct Watcher {
    CRef cref;
    Lit blocker;
  };

  // Clause arena: [header | lit0 | lit1 | ...]. Header packs size (30 bits),
  // learnt flag; learned clauses carry an activity float in an extra slot.
  struct ClauseHeader {
    std::uint32_t size : 30;
    std::uint32_t learnt : 1;
    std::uint32_t reloced : 1;
  };

  Lit* clause_lits(CRef c) {
    return reinterpret_cast<Lit*>(&arena_[c + 1 + header(c).learnt]);
  }
  const Lit* clause_lits(CRef c) const {
    return reinterpret_cast<const Lit*>(&arena_[c + 1 + header(c).learnt]);
  }
  ClauseHeader& header(CRef c) {
    return *reinterpret_cast<ClauseHeader*>(&arena_[c]);
  }
  const ClauseHeader& header(CRef c) const {
    return *reinterpret_cast<const ClauseHeader*>(&arena_[c]);
  }
  float& clause_act(CRef c) {
    return *reinterpret_cast<float*>(&arena_[c + 1]);
  }

  CRef alloc_clause(const std::vector<Lit>& lits, bool learnt);
  void attach_clause(CRef c);
  void detach_clause(CRef c);
  void remove_clause(CRef c);

  Value value(Lit l) const { return assigns_[l.var()] ^ l.sign(); }
  Value value(Var v) const { return assigns_[v]; }

  void enqueue(Lit l, CRef reason);
  CRef propagate();
  void analyze(CRef conflict, std::vector<Lit>& learnt, int& out_level);
  bool lit_redundant(Lit l, std::uint32_t ab_levels);
  void cancel_until(int level);
  Lit pick_branch();
  Result search();
  void reduce_db();
  void bump_var(Var v);
  void decay_var_activity() { var_inc_ /= 0.95; }
  void bump_clause(CRef c);
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  // Heap keyed by activity.
  void heap_insert(Var v);
  Var heap_pop();
  bool heap_empty() const { return heap_.empty(); }
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);

  bool ok_ = true;
  std::vector<std::uint32_t> arena_;
  std::vector<CRef> clauses_;
  std::vector<CRef> learnts_;
  /// Indexed by Lit::index(). May hold more lists than 2 * num_vars():
  /// reset() keeps the lists it empties for new_var to hand out again.
  std::vector<std::vector<Watcher>> watches_;
  std::vector<Value> assigns_;
  std::vector<bool> polarity_;  // saved phases
  std::vector<int> level_;
  std::vector<CRef> reason_;
  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  std::vector<std::int32_t> heap_pos_;  // -1 if absent
  std::vector<Var> heap_;

  std::vector<Lit> assumptions_;
  std::vector<Value> model_;

  std::vector<char> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> add_sorted_;  ///< add_clause scratch: sorted input
  std::vector<Lit> add_kept_;    ///< add_clause scratch: simplified clause
  std::vector<Lit> learnt_;      ///< search scratch: the learned clause
  std::vector<Var> to_clear_;    ///< analyze scratch: marks to undo
  std::vector<Var> redundant_added_;  ///< lit_redundant scratch
  std::vector<CRef> reduce_live_;     ///< reduce_db scratch
  std::vector<Lit> deleted_;          ///< remove_clause scratch for the sink

  bool reuse_model_ = false;
  bool model_current_ = false;  ///< model_ satisfies the clause database
  ResourceGovernor* governor_ = nullptr;
  ProofSink* proof_ = nullptr;
  std::uint64_t charged_propagations_ = 0;   // high-water mark of charges
  double max_learnts_ = 0;
  SolverStats stats_;
};

}  // namespace kms::sat

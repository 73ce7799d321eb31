#include "src/sat/solver.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/governor.hpp"
#include "src/base/rng.hpp"
#include "src/proof/drat.hpp"
#include "src/sat/dpll.hpp"

namespace kms::sat {
namespace {

TEST(SatTest, TrivialSat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause(mk_lit(a));
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.model_bool(a));
}

TEST(SatTest, TrivialUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause(mk_lit(a));
  EXPECT_FALSE(s.add_clause(mk_lit(a, true)));
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatTest, ImplicationChain) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 50; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 50; ++i)
    s.add_clause(mk_lit(v[i], true), mk_lit(v[i + 1]));
  s.add_clause(mk_lit(v[0]));
  EXPECT_EQ(s.solve(), Result::kSat);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(s.model_bool(v[i]));
}

TEST(SatTest, XorChainUnsat) {
  // x1 ^ x2, x2 ^ x3, x1 ^ x3 with odd parity constraint is UNSAT:
  // encode x_i != x_{i+1} cycles of odd length.
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  auto neq = [&](Var x, Var y) {
    s.add_clause(mk_lit(x), mk_lit(y));
    s.add_clause(mk_lit(x, true), mk_lit(y, true));
  };
  neq(a, b);
  neq(b, c);
  neq(c, a);
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatTest, AssumptionsSatAndUnsat) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  s.add_clause(mk_lit(a, true), mk_lit(b));  // a -> b
  EXPECT_EQ(s.solve({mk_lit(a)}), Result::kSat);
  EXPECT_TRUE(s.model_bool(b));
  // Assumptions a & !b conflict with a->b.
  EXPECT_EQ(s.solve({mk_lit(a), mk_lit(b, true)}), Result::kUnsat);
  // Solver remains usable and satisfiable without assumptions.
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatTest, DuplicateAndTautologicalLiterals) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  EXPECT_TRUE(s.add_clause({mk_lit(a), mk_lit(a), mk_lit(b)}));
  EXPECT_TRUE(s.add_clause({mk_lit(a), mk_lit(a, true)}));  // tautology
  EXPECT_EQ(s.solve(), Result::kSat);
}

TEST(SatTest, PigeonholeUnsat) {
  // 4 pigeons in 3 holes. Small but requires real search.
  const int pigeons = 4, holes = 3;
  Solver s;
  std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(mk_lit(p[i][h]));
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int i = 0; i < pigeons; ++i)
      for (int j = i + 1; j < pigeons; ++j)
        s.add_clause(mk_lit(p[i][h], true), mk_lit(p[j][h], true));
  EXPECT_EQ(s.solve(), Result::kUnsat);
}

TEST(SatTest, PigeonholeSixSevenUnsat) {
  // 7 pigeons in 6 holes: forces many conflicts, restarts, learning.
  const int pigeons = 7, holes = 6;
  Solver s;
  std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(mk_lit(p[i][h]));
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int i = 0; i < pigeons; ++i)
      for (int j = i + 1; j < pigeons; ++j)
        s.add_clause(mk_lit(p[i][h], true), mk_lit(p[j][h], true));
  EXPECT_EQ(s.solve(), Result::kUnsat);
  EXPECT_GT(s.stats().conflicts, 10u);
}

TEST(SatTest, ModelSatisfiesAllClauses) {
  Rng rng(123);
  for (int round = 0; round < 20; ++round) {
    Solver s;
    const int nv = 30;
    std::vector<Var> vars;
    for (int i = 0; i < nv; ++i) vars.push_back(s.new_var());
    std::vector<std::vector<Lit>> cnf;
    for (int c = 0; c < 100; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k)
        clause.push_back(
            mk_lit(vars[rng.next_below(nv)], rng.next_bool()));
      cnf.push_back(clause);
      s.add_clause(clause);
    }
    if (s.solve() != Result::kSat) continue;
    for (const auto& clause : cnf) {
      bool satisfied = false;
      for (Lit l : clause)
        if (s.model_bool(l.var()) != l.sign()) satisfied = true;
      EXPECT_TRUE(satisfied);
    }
  }
}

class RandomCnfCross : public ::testing::TestWithParam<int> {};

TEST_P(RandomCnfCross, AgreesWithDpll) {
  // Random 3-SAT at the phase-transition ratio, cross-checked against
  // the reference DPLL decider.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const int nv = 16;
  const int nc = 68;  // ~4.25 * nv
  Solver s;
  std::vector<Var> vars;
  for (int i = 0; i < nv; ++i) vars.push_back(s.new_var());
  std::vector<std::vector<Lit>> cnf;
  bool trivially_unsat = false;
  for (int c = 0; c < nc; ++c) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k)
      clause.push_back(mk_lit(vars[rng.next_below(nv)], rng.next_bool()));
    cnf.push_back(clause);
    if (!s.add_clause(clause)) trivially_unsat = true;
  }
  const bool expect = dpll_satisfiable(nv, cnf);
  if (trivially_unsat) {
    EXPECT_FALSE(expect);
    return;
  }
  EXPECT_EQ(s.solve() == Result::kSat, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnfCross, ::testing::Range(0, 60));

TEST(SatTest, IncrementalSolvesWithGrowingClauses) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  s.add_clause(mk_lit(a), mk_lit(b));
  EXPECT_EQ(s.solve(), Result::kSat);
  s.add_clause(mk_lit(a, true), mk_lit(c));
  s.add_clause(mk_lit(b, true), mk_lit(c));
  EXPECT_EQ(s.solve({mk_lit(c, true)}), Result::kUnsat);
  EXPECT_EQ(s.solve(), Result::kSat);
  EXPECT_TRUE(s.model_bool(c));
}

TEST(SatTest, ModelReuseKeepsVerdicts) {
  // The delay search's traffic: assumption sets that grow and shrink
  // like a DFS spine, with literals of both polarities, and clauses
  // added between solves. A solver that answers from its previous model
  // must reach the verdicts of one that searches every time, and leave
  // a model satisfying the assumptions whenever it answers kSat.
  Rng rng(2024);
  std::size_t reused = 0;
  for (int round = 0; round < 20; ++round) {
    const int nv = 24;
    Solver fresh, reuse;
    reuse.set_model_reuse(true);
    std::vector<std::vector<Lit>> cnf;
    const auto random_lit = [&] {
      return mk_lit(static_cast<Var>(rng.next_below(nv)), rng.next_bool());
    };
    const auto add = [&] {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) clause.push_back(random_lit());
      cnf.push_back(clause);
      fresh.add_clause(clause);
      reuse.add_clause(clause);
    };
    for (int i = 0; i < nv; ++i) {
      fresh.new_var();
      reuse.new_var();
    }
    for (int c = 0; c < 2 * nv; ++c) add();
    std::vector<Lit> assumptions;
    for (int step = 0; step < 200; ++step) {
      const std::uint64_t move = rng.next_below(8);
      if (move < 4 || assumptions.empty()) {
        assumptions.push_back(random_lit());
      } else if (move < 7) {
        assumptions.resize(rng.next_below(assumptions.size()));
      } else {
        add();
      }
      const std::uint64_t decisions = reuse.stats().decisions;
      const std::uint64_t propagations = reuse.stats().propagations;
      const Result want = fresh.solve(assumptions);
      const Result got = reuse.solve(assumptions);
      ASSERT_EQ(got, want) << "round " << round << " step " << step;
      if (got != Result::kSat) continue;
      if (reuse.stats().decisions == decisions &&
          reuse.stats().propagations == propagations)
        ++reused;
      for (Lit a : assumptions)
        EXPECT_NE(reuse.model_bool(a.var()), a.sign());
      for (const auto& clause : cnf) {
        bool satisfied = false;
        for (Lit l : clause)
          if (reuse.model_bool(l.var()) != l.sign()) satisfied = true;
        EXPECT_TRUE(satisfied);
      }
    }
  }
  EXPECT_GT(reused, 100u);
}

// ---- reset() ---------------------------------------------------------

/// One formula and the queries asked of it, with the attachments a
/// caller may set: everything reset() must forget.
struct Script {
  const char* name = "";
  int vars = 0;
  std::vector<std::vector<Lit>> clauses;
  struct Query {
    std::vector<std::vector<Lit>> add;  ///< clauses added before the solve
    std::vector<Lit> assume;
  };
  std::vector<Query> queries;
  std::int64_t governor_conflicts = -1;  ///< >= 0: attach a governor
  bool model_reuse = false;
  bool drat = false;
};

/// What a caller can observe of one solve.
struct Observed {
  Result result = Result::kUnknown;
  bool inconsistent = false;
  std::vector<Value> model;  ///< kSat only
  std::vector<std::uint64_t> stats;
  std::string certificate;  ///< DRAT files of a kUnsat verdict
};

/// Run `script` on `s` with the caller's `governor` and `trace`, which
/// outlive the run: a reset that kept the governor script's exhausted
/// governor would stop the next script's queries, and one that kept a
/// trace would switch off model reuse.
std::vector<Observed> run_script(Solver& s, const Script& script,
                                 ResourceGovernor& governor,
                                 proof::DratTrace& trace) {
  if (script.governor_conflicts >= 0) {
    governor.set_conflict_limit(script.governor_conflicts);
    s.set_governor(&governor);
  }
  if (script.drat) s.set_proof(&trace);
  if (script.model_reuse) s.set_model_reuse(true);
  for (int v = 0; v < script.vars; ++v) s.new_var();
  for (const auto& clause : script.clauses) s.add_clause(clause);
  std::vector<Observed> out;
  for (const Script::Query& q : script.queries) {
    for (const auto& clause : q.add) s.add_clause(clause);
    Observed o;
    o.result = s.solve(q.assume);
    o.inconsistent = s.inconsistent();
    if (o.result == Result::kSat)
      for (int v = 0; v < script.vars; ++v) o.model.push_back(s.model_value(v));
    const SolverStats& st = s.stats();
    o.stats = {st.conflicts, st.decisions, st.propagations,
               st.restarts,  st.learned,   st.removed_learned};
    if (script.drat && o.result == Result::kUnsat) {
      const auto cert = trace.last_unsat_certificate();
      EXPECT_TRUE(cert) << script.name;
      if (cert) {
        std::ostringstream bytes;
        proof::write_cnf(*cert, bytes);
        proof::write_drat(*cert, bytes);
        o.certificate = bytes.str();
      }
    }
    out.push_back(std::move(o));
  }
  return out;
}

/// `width` random literals of mixed polarity: a clause, or an
/// assumption set.
std::vector<Lit> random_clause(Rng& rng, int vars, int width) {
  std::vector<Lit> clause;
  for (int k = 0; k < width; ++k)
    clause.push_back(
        mk_lit(static_cast<Var>(rng.next_below(vars)), rng.next_bool()));
  return clause;
}

void add_pigeonhole(Script& script, int pigeons, int holes) {
  const int base = script.vars;
  script.vars += pigeons * holes;
  const auto p = [&](int i, int h) { return base + i * holes + h; };
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(mk_lit(p(i, h)));
    script.clauses.push_back(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int i = 0; i < pigeons; ++i)
      for (int j = i + 1; j < pigeons; ++j)
        script.clauses.push_back(
            {mk_lit(p(i, h), true), mk_lit(p(j, h), true)});
}

std::vector<Script> reset_scripts() {
  Rng rng(17);
  std::vector<Script> out;
  {
    // Random 3-SAT past the threshold, large enough that one search
    // learns more than reduce_db's 4000-clause floor.
    Script s;
    s.name = "reduce_db";
    Rng hard(1);
    s.vars = 180;
    for (int c = 0; c < 792; ++c)
      s.clauses.push_back(random_clause(hard, 180, 3));
    s.queries.push_back({});
    s.queries.push_back({{}, random_clause(rng, 180, 4)});
    out.push_back(std::move(s));
  }
  {
    // The first query stops mid-search, the later ones at entry.
    Script s;
    s.name = "governor";
    add_pigeonhole(s, 8, 7);
    s.governor_conflicts = 60;
    for (int q = 0; q < 3; ++q)
      s.queries.push_back({{}, random_clause(rng, s.vars, 2)});
    out.push_back(std::move(s));
  }
  {
    Script s;
    s.name = "root_inconsistent";
    s.vars = 6;
    s.clauses = {{mk_lit(0), mk_lit(1)}, {mk_lit(0, true)}, {mk_lit(1, true)},
                 {mk_lit(2), mk_lit(3), mk_lit(4, true)}};
    s.drat = true;
    s.queries.push_back({});
    s.queries.push_back({{}, {mk_lit(5), mk_lit(2, true)}});
    out.push_back(std::move(s));
  }
  {
    // The delay search's traffic: a DFS spine of mixed-polarity
    // assumptions with clauses added in between.
    Script s;
    s.name = "model_reuse";
    s.vars = 40;
    for (int c = 0; c < 120; ++c)
      s.clauses.push_back(random_clause(rng, 40, 3));
    s.model_reuse = true;
    std::vector<Lit> spine;
    for (int step = 0; step < 120; ++step) {
      Script::Query q;
      const std::uint64_t move = rng.next_below(8);
      if (move < 4 || spine.empty())
        spine.push_back(mk_lit(static_cast<Var>(rng.next_below(40)),
                               rng.next_bool()));
      else if (move < 7)
        spine.resize(rng.next_below(spine.size()));
      else
        q.add.push_back(random_clause(rng, 40, 3));
      q.assume = spine;
      s.queries.push_back(std::move(q));
    }
    out.push_back(std::move(s));
  }
  {
    // Plain incremental use right after the model_reuse script: a reset
    // that kept the reuse flag would answer some of these unsearched.
    Script s;
    s.name = "incremental";
    s.vars = 30;
    for (int c = 0; c < 90; ++c) s.clauses.push_back(random_clause(rng, 30, 3));
    for (int q = 0; q < 40; ++q)
      s.queries.push_back({{}, random_clause(rng, 30, q % 4)});
    out.push_back(std::move(s));
  }
  {
    // A certificate per kUnsat query; lemmas accumulate across queries.
    Script s;
    s.name = "drat";
    s.vars = 50;
    for (int c = 0; c < 205; ++c)
      s.clauses.push_back(random_clause(rng, 50, 3));
    s.drat = true;
    for (int q = 0; q < 30; ++q)
      s.queries.push_back({{}, random_clause(rng, 50, 1 + q % 6)});
    out.push_back(std::move(s));
  }
  return out;
}

void expect_same(const std::vector<Observed>& got,
                 const std::vector<Observed>& want, const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (std::size_t q = 0; q < got.size(); ++q) {
    const std::string at = ctx + " query " + std::to_string(q);
    EXPECT_EQ(got[q].result, want[q].result) << at;
    EXPECT_EQ(got[q].inconsistent, want[q].inconsistent) << at;
    EXPECT_EQ(got[q].model, want[q].model) << at;
    EXPECT_EQ(got[q].stats, want[q].stats) << at;
    EXPECT_EQ(got[q].certificate, want[q].certificate) << at;
  }
}

TEST(SatTest, ResetSolverBehavesAsFresh) {
  const std::vector<Script> scripts = reset_scripts();
  // Each script on a fresh solver, and on one solver reset between
  // scripts, forwards and then backwards: every script runs after
  // unrelated formulas, both larger and smaller than itself.
  std::deque<ResourceGovernor> governors;
  std::deque<proof::DratTrace> traces;
  const auto run = [&](Solver& s, const Script& script) {
    return run_script(s, script, governors.emplace_back(),
                      traces.emplace_back());
  };
  std::vector<std::vector<Observed>> fresh;
  for (const Script& script : scripts) {
    Solver s;
    fresh.push_back(run(s, script));
  }
  // The scripts reach what they are named for.
  EXPECT_GT(fresh[0].back().stats[5], 0u) << "no reduce_db";
  EXPECT_EQ(fresh[1][0].result, Result::kUnknown);
  EXPECT_GT(fresh[1][0].stats[0], 0u) << "governor stopped at entry";
  EXPECT_EQ(fresh[1][2].stats, fresh[1][1].stats) << "later query searched";
  EXPECT_TRUE(fresh[2][0].inconsistent);
  EXPECT_FALSE(fresh[2][0].certificate.empty());
  std::size_t reused_models = 0;
  for (std::size_t q = 1; q < fresh[3].size(); ++q)
    reused_models += fresh[3][q].result == Result::kSat &&
                     fresh[3][q].stats == fresh[3][q - 1].stats;
  EXPECT_GT(reused_models, 0u);
  std::size_t drat_unsat = 0;
  for (const Observed& o : fresh[5]) drat_unsat += !o.certificate.empty();
  EXPECT_GT(drat_unsat, 0u);

  Solver reused;
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < scripts.size(); ++i) order.push_back(i);
  for (std::size_t i = scripts.size(); i-- > 0;) order.push_back(i);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    reused.reset();
    expect_same(run(reused, scripts[i]), fresh[i],
                std::string(scripts[i].name) + " run " + std::to_string(k));
  }
}

}  // namespace
}  // namespace kms::sat

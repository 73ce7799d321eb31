#include "src/sat/solver.hpp"

#include <gtest/gtest.h>

#include "src/base/rng.hpp"
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

TEST(SatTest, ConflictBudgetReturnsUnknown) {
  // A hard pigeonhole with a tiny budget must come back kUnknown.
  const int pigeons = 9, holes = 8;
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
  s.set_conflict_budget(5);
  EXPECT_EQ(s.solve(), Result::kUnknown);
}

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

}  // namespace
}  // namespace kms::sat

// ResourceGovernor + three-valued solver contract: budgets, deadlines,
// cooperative interrupts and injected faults must all surface as
// kUnknown — never as a spurious kSat/kUnsat — and accounting must hold
// across many solvers sharing one governor.
#include "src/base/governor.hpp"

#include <gtest/gtest.h>

#include "src/cnf/encoder.hpp"
#include "src/gen/adders.hpp"
#include "src/netlist/transform.hpp"
#include "src/sat/solver.hpp"

namespace kms {
namespace {

using sat::Lit;
using sat::Result;
using sat::Solver;
using sat::Var;

/// Pigeonhole principle php(n): n+1 pigeons, n holes — UNSAT, and hard
/// for CDCL (exponential resolution lower bound), so it reliably burns
/// through small conflict budgets.
void add_pigeonhole(Solver& s, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
  for (int i = 0; i < pigeons; ++i)
    for (int j = 0; j < holes; ++j) p[i][j] = s.new_var();
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> clause;
    for (int j = 0; j < holes; ++j) clause.push_back(sat::mk_lit(p[i][j]));
    s.add_clause(clause);
  }
  for (int j = 0; j < holes; ++j)
    for (int i = 0; i < pigeons; ++i)
      for (int k = i + 1; k < pigeons; ++k)
        s.add_clause(sat::mk_lit(p[i][j], true), sat::mk_lit(p[k][j], true));
}

TEST(GovernorTest, UnlimitedGovernorNeverStops) {
  ResourceGovernor gov;
  EXPECT_FALSE(gov.should_stop());
  gov.charge(1000000, 1000000);
  EXPECT_FALSE(gov.should_stop());
  EXPECT_FALSE(gov.report().degraded());
}

TEST(GovernorTest, GlobalConflictBudgetYieldsUnknown) {
  ResourceGovernor gov;
  gov.set_conflict_limit(20);
  Solver s;
  s.set_governor(&gov);
  add_pigeonhole(s, 8);
  EXPECT_EQ(s.solve(), Result::kUnknown);
  const GovernorReport r = gov.report();
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_GE(r.conflicts, 20u);
  EXPECT_EQ(r.unknown_results, 1u);
  EXPECT_TRUE(r.degraded());
}

TEST(GovernorTest, BudgetSpansSolversSharingTheGovernor) {
  // The budget is global: once solver A exhausts it, solver B must give
  // up immediately even on a trivial instance.
  ResourceGovernor gov;
  gov.set_conflict_limit(20);
  Solver a;
  a.set_governor(&gov);
  add_pigeonhole(a, 8);
  EXPECT_EQ(a.solve(), Result::kUnknown);

  Solver b;
  b.set_governor(&gov);
  const Var v = b.new_var();
  b.add_clause(sat::mk_lit(v));
  EXPECT_EQ(b.solve(), Result::kUnknown);
  EXPECT_EQ(gov.report().unknown_results, 2u);
}

TEST(GovernorTest, ExpiredDeadlineStopsBeforeAnyWork) {
  ResourceGovernor gov;
  gov.set_time_limit(1e-9);  // already in the past by the first probe
  Solver s;
  s.set_governor(&gov);
  const Var v = s.new_var();
  s.add_clause(sat::mk_lit(v));
  EXPECT_EQ(s.solve(), Result::kUnknown);
  EXPECT_TRUE(gov.report().deadline_hit);
}

TEST(GovernorTest, InterruptStopsSolvesAndIsSticky) {
  ResourceGovernor gov;
  Solver s;
  s.set_governor(&gov);
  const Var v = s.new_var();
  s.add_clause(sat::mk_lit(v));
  EXPECT_EQ(s.solve(), Result::kSat);
  gov.request_interrupt();
  EXPECT_EQ(s.solve(), Result::kUnknown);
  EXPECT_EQ(s.solve(), Result::kUnknown);
  EXPECT_TRUE(gov.report().interrupted);
}

TEST(GovernorTest, InjectorAbortsExactlyTheScheduledQueries) {
  ResourceGovernor gov;
  gov.set_injector(FaultInjector::at_indices({0, 2}));
  Solver s;
  s.set_governor(&gov);
  const Var v = s.new_var();
  s.add_clause(sat::mk_lit(v));
  EXPECT_EQ(s.solve(), Result::kUnknown);  // query 0: injected
  EXPECT_EQ(s.solve(), Result::kSat);      // query 1: normal
  EXPECT_EQ(s.solve(), Result::kUnknown);  // query 2: injected
  EXPECT_EQ(s.solve(), Result::kSat);      // query 3: normal
  const GovernorReport r = gov.report();
  EXPECT_EQ(r.injected_aborts, 2u);
  EXPECT_EQ(r.unknown_results, 2u);
  EXPECT_EQ(r.queries, 4u);
}

TEST(GovernorTest, RandomInjectorIsDeterministicInSeedAndIndex) {
  const FaultInjector a = FaultInjector::random(42, 0.5);
  const FaultInjector b = FaultInjector::random(42, 0.5);
  int aborts = 0;
  for (std::uint64_t q = 0; q < 1000; ++q) {
    EXPECT_EQ(a.should_abort(q), b.should_abort(q));
    if (a.should_abort(q)) ++aborts;
  }
  EXPECT_GT(aborts, 350);  // ~500 expected; loose bounds, zero flakiness
  EXPECT_LT(aborts, 650);
  EXPECT_TRUE(FaultInjector::random(7, 1.0).should_abort(123));
  EXPECT_FALSE(FaultInjector::random(7, 0.0).should_abort(123));
}

TEST(GovernorTest, GovernedEquivalenceCheckDegradesToUnknown) {
  Network a = carry_skip_adder(2, 2);
  decompose_to_simple(a);
  Network b = a;

  ResourceGovernor fresh;
  EXPECT_EQ(check_equivalence(a, b, nullptr, &fresh), Result::kUnsat);

  ResourceGovernor spent;
  spent.set_conflict_limit(0);
  EXPECT_EQ(check_equivalence(a, b, nullptr, &spent), Result::kUnknown);

  // Ungoverned remains exact.
  EXPECT_TRUE(sat_equivalent(a, b));
}

}  // namespace
}  // namespace kms

// Property sweeps over the CDCL solver: cross-validation against DPLL on a
// density grid, model soundness, assumption semantics, incremental reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "sat/dpll.h"
#include "sat/ksat.h"
#include "sat/solver.h"

namespace fl::sat {
namespace {

bool model_satisfies(const Cnf& cnf, const std::vector<bool>& model) {
  for (const Clause& c : cnf.clauses) {
    bool sat = false;
    for (const Lit l : c) {
      if (model[l.var()] != l.negated()) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

struct GridPoint {
  int num_vars;
  double ratio;
};

class SolverGrid : public ::testing::TestWithParam<GridPoint> {};

// CDCL agrees with classic DPLL across the density spectrum, and every SAT
// answer carries a genuinely satisfying model.
TEST_P(SolverGrid, AgreesWithDpllAndModelsAreSound) {
  const GridPoint point = GetParam();
  std::mt19937_64 seeds(point.num_vars * 1000 +
                        static_cast<int>(point.ratio * 10));
  for (int trial = 0; trial < 12; ++trial) {
    KSatConfig config;
    config.num_vars = point.num_vars;
    config.num_clauses =
        std::max(1, static_cast<int>(point.num_vars * point.ratio));
    config.seed = seeds();
    const Cnf cnf = random_ksat(config);
    std::vector<bool> model;
    const LBool cdcl = solve_cnf(cnf, &model);
    const DpllResult dpll = Dpll().solve(cnf);
    ASSERT_TRUE(dpll.completed);
    ASSERT_EQ(cdcl == LBool::kTrue, dpll.satisfiable)
        << "n=" << point.num_vars << " r=" << point.ratio << " t=" << trial;
    if (cdcl == LBool::kTrue) {
      EXPECT_TRUE(model_satisfies(cnf, model));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DensityGrid, SolverGrid,
    ::testing::Values(GridPoint{15, 2.0}, GridPoint{15, 3.0},
                      GridPoint{15, 4.3}, GridPoint{15, 6.0},
                      GridPoint{15, 8.0}, GridPoint{25, 4.3},
                      GridPoint{30, 3.5}, GridPoint{30, 5.0}));

// Solving under assumptions A is equisatisfiable with solving the formula
// plus A as unit clauses.
TEST(SolverProperties, AssumptionsEquivalentToUnits) {
  std::mt19937_64 seeds(404);
  for (int trial = 0; trial < 24; ++trial) {
    KSatConfig config;
    config.num_vars = 18;
    config.num_clauses = 60 + static_cast<int>(seeds() % 30);
    config.seed = seeds();
    const Cnf cnf = random_ksat(config);

    std::vector<Lit> assumptions;
    for (int i = 0; i < 4; ++i) {
      assumptions.push_back(
          Lit(static_cast<Var>(seeds() % 18), (seeds() & 1) != 0));
    }

    Solver with_assumptions;
    for (int v = 0; v < cnf.num_vars; ++v) with_assumptions.new_var();
    for (const Clause& c : cnf.clauses) with_assumptions.add_clause(c);
    const LBool a = with_assumptions.solve(assumptions);

    Solver with_units;
    for (int v = 0; v < cnf.num_vars; ++v) with_units.new_var();
    bool ok = true;
    for (const Clause& c : cnf.clauses) ok &= with_units.add_clause(c);
    for (const Lit l : assumptions) ok &= with_units.add_clause({l});
    const LBool u = ok ? with_units.solve() : LBool::kFalse;

    EXPECT_EQ(a, u) << "trial " << trial;
  }
}

// The key confirmation's shape: one solver answers many solves, each under
// dozens of assumptions. The formula is a 150-variable random 3-SAT base
// at m/n = 3.3 plus 64 groups of 6 more random 3-clauses, each group
// guarded by a selector variable; a solve assumes 30-60 random selector
// literals, and the 15-30 groups it switches on bring the base to about
// the phase-transition density (3.9-4.5). Every answer matches a fresh solver
// given the assumptions as unit clauses, every model satisfies every
// clause and every assumption, and reduce_db fires, so clauses ranked under
// one solve's assumptions survive into later solves under other ones.
TEST(SolverProperties, ManyAssumptionsAcrossIncrementalSolvesMatchUnits) {
  constexpr int kVars = 150, kGroups = 64, kGroupSize = 6;
  KSatConfig config;
  config.num_vars = kVars;
  config.num_clauses = static_cast<int>(kVars * 3.3);
  config.seed = 31;
  Cnf cnf = random_ksat(config);
  config.num_clauses = kGroups * kGroupSize;
  config.seed = 32;
  const Cnf extra = random_ksat(config);
  for (int g = 0; g < kGroups; ++g) {
    const Var selector = cnf.new_var();
    for (int i = 0; i < kGroupSize; ++i) {
      Clause c = extra.clauses[g * kGroupSize + i];
      c.push_back(neg(selector));
      cnf.add(std::move(c));
    }
  }
  Solver incremental;
  for (int v = 0; v < cnf.num_vars; ++v) incremental.new_var();
  for (const Clause& c : cnf.clauses) ASSERT_TRUE(incremental.add_clause(c));

  std::mt19937_64 rng(77);
  std::vector<Var> selectors(kGroups);
  std::iota(selectors.begin(), selectors.end(), kVars);
  for (int round = 0; round < 24; ++round) {
    std::shuffle(selectors.begin(), selectors.end(), rng);
    const int count = 30 + static_cast<int>(rng() % 31);
    std::vector<Lit> assumptions;
    for (int i = 0; i < count; ++i) {
      assumptions.push_back(Lit(selectors[i], (rng() & 1) != 0));
    }
    const LBool got = incremental.solve(assumptions);

    Solver with_units;
    for (int v = 0; v < cnf.num_vars; ++v) with_units.new_var();
    bool ok = true;
    for (const Clause& c : cnf.clauses) ok &= with_units.add_clause(c);
    for (const Lit l : assumptions) ok &= with_units.add_clause({l});
    const LBool want = ok ? with_units.solve() : LBool::kFalse;
    ASSERT_EQ(got, want) << "round " << round;
    if (got != LBool::kTrue) continue;
    const std::vector<bool> model = incremental.model();
    EXPECT_TRUE(model_satisfies(cnf, model)) << "round " << round;
    for (const Lit l : assumptions) {
      EXPECT_NE(model[l.var()], l.negated()) << "round " << round;
    }
  }
  EXPECT_GT(incremental.stats().removed_clauses, 0u)
      << "reduce_db never fired";
}

// Assumption solving leaves no residue: the unconstrained problem remains
// satisfiable afterwards and flipped assumptions still work.
TEST(SolverProperties, AssumptionsAreStateless) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 12; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 12; ++i) {
    ASSERT_TRUE(s.add_clause({neg(v[i]), pos(v[i + 1])}));
  }
  std::mt19937_64 rng(7);
  for (int round = 0; round < 50; ++round) {
    const Var pick = static_cast<Var>(rng() % 12);
    const Lit assume[] = {Lit(pick, (rng() & 1) != 0)};
    const LBool r = s.solve(assume);
    EXPECT_NE(r, LBool::kUndef);
  }
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

// Incremental clause addition between solves matches one-shot solving.
TEST(SolverProperties, IncrementalMatchesOneShot) {
  std::mt19937_64 seeds(9090);
  for (int trial = 0; trial < 12; ++trial) {
    KSatConfig config;
    config.num_vars = 16;
    config.num_clauses = 70;
    config.seed = seeds();
    const Cnf cnf = random_ksat(config);

    Solver incremental;
    for (int v = 0; v < cnf.num_vars; ++v) incremental.new_var();
    LBool inc_result = LBool::kTrue;
    for (std::size_t i = 0; i < cnf.clauses.size(); ++i) {
      if (!incremental.add_clause(cnf.clauses[i])) {
        inc_result = LBool::kFalse;
        break;
      }
      if (i % 10 == 9) {
        inc_result = incremental.solve();
        if (inc_result == LBool::kFalse) break;
      }
    }
    if (inc_result != LBool::kFalse) inc_result = incremental.solve();
    EXPECT_EQ(inc_result, solve_cnf(cnf)) << "trial " << trial;
  }
}

// Differential fuzz pinned to the hardness peak (m/n = 4.26): CDCL and DPLL
// must agree on every instance, and every SAT model must check out. The
// density grid above brushes 4.3; this sweep concentrates trials exactly
// where learnt-clause management is under the most pressure.
TEST(SolverProperties, DifferentialFuzzAtPhaseTransition) {
  std::mt19937_64 seeds(0x426);
  for (const int n : {20, 30, 40}) {
    for (int trial = 0; trial < 15; ++trial) {
      KSatConfig config;
      config.num_vars = n;
      config.num_clauses = static_cast<int>(n * 4.26);
      config.seed = seeds();
      const Cnf cnf = random_ksat(config);
      std::vector<bool> model;
      const LBool cdcl = solve_cnf(cnf, &model);
      const DpllResult dpll = Dpll().solve(cnf);
      ASSERT_TRUE(dpll.completed);
      ASSERT_EQ(cdcl == LBool::kTrue, dpll.satisfiable)
          << "n=" << n << " t=" << trial;
      if (cdcl == LBool::kTrue) {
        ASSERT_TRUE(model_satisfies(cnf, model)) << "n=" << n << " t=" << trial;
      }
      if (dpll.satisfiable) {
        ASSERT_TRUE(model_satisfies(cnf, dpll.model))
            << "n=" << n << " t=" << trial;
      }
    }
  }
}

// reduce_db accounting: reductions must actually fire on a long search, the
// halving target is based on reducible clauses only (so removal makes real
// progress instead of stalling on locked/core clauses), and the LBD
// statistics stay mutually consistent.
TEST(SolverProperties, ReduceDbAccountingIsConsistent) {
  KSatConfig config;
  config.num_vars = 170;
  config.num_clauses = static_cast<int>(170 * 4.26);
  config.seed = 11;
  const Cnf cnf = random_ksat(config);
  Solver s;
  for (int v = 0; v < cnf.num_vars; ++v) s.new_var();
  for (const Clause& c : cnf.clauses) s.add_clause(c);
  const LBool r = s.solve();
  ASSERT_NE(r, LBool::kUndef);
  const SolverStats& stats = s.stats();
  ASSERT_GT(stats.removed_clauses, 0u) << "reduce_db never fired";
  // Removal targets only the local tier, so it can never exceed what was
  // learnt, and a reduce leaves the kept clauses behind.
  EXPECT_LT(stats.removed_clauses, stats.learned_clauses);
  EXPECT_GT(stats.db_size_after_reduce, 0u);
  // LBD histogram consistency: every learnt clause contributes >= 1 to the
  // sum, glue clauses are a subset, and the max bounds the mean.
  EXPECT_GE(stats.lbd_sum, stats.learned_clauses);
  EXPECT_LE(stats.glue_learned, stats.learned_clauses);
  EXPECT_GE(stats.max_lbd, 1u);
  EXPECT_GE(stats.max_lbd * stats.learned_clauses, stats.lbd_sum);
  EXPECT_LE(stats.learned_binary, stats.learned_clauses);
  // The surviving database is what was learnt minus what the two removal
  // paths dropped (simplify_removed_clauses also counts problem clauses,
  // hence the bracket rather than an equality).
  EXPECT_LE(s.num_learnts(), stats.learned_clauses - stats.removed_clauses);
  EXPECT_GE(s.num_learnts() + stats.removed_clauses +
                stats.simplify_removed_clauses,
            stats.learned_clauses);
  // And the answer is still the answer: re-solving the same instance in the
  // same (now clause-laden) solver must agree.
  EXPECT_EQ(s.solve(), r);
}

// Incremental use with explicit simplify() between solves — the SAT-attack
// shape: add constraint clauses, solve, simplify, repeat. Every round must
// match a fresh solver over the accumulated formula.
TEST(SolverProperties, SimplifyPreservesAnswersAcrossIncrementalSolves) {
  std::mt19937_64 seeds(515);
  for (int trial = 0; trial < 8; ++trial) {
    KSatConfig config;
    config.num_vars = 24;
    config.num_clauses = 80;
    config.seed = seeds();
    Cnf accumulated = random_ksat(config);

    Solver incremental;
    for (int v = 0; v < accumulated.num_vars; ++v) incremental.new_var();
    bool ok = true;
    for (const Clause& c : accumulated.clauses) {
      ok &= incremental.add_clause(c);
    }
    for (int round = 0; round < 25; ++round) {
      const LBool inc = ok ? incremental.solve() : LBool::kFalse;
      const LBool fresh = solve_cnf(accumulated);
      ASSERT_EQ(inc, fresh) << "trial " << trial << " round " << round;
      if (inc != LBool::kTrue) break;
      // Ban the found model (over a prefix of the variables, so the bans
      // bite quickly) and force a root-level simplification pass.
      Clause ban;
      for (Var v = 0; v < 6; ++v) {
        ban.push_back(Lit(v, incremental.value_of(v)));
      }
      accumulated.add(ban);
      ok &= incremental.add_clause(ban);
      incremental.simplify();
    }
  }
}

// Learnt-clause reduction must not change answers (stress enough conflicts
// to trigger reduce_db).
TEST(SolverProperties, SolvesHardInstanceAcrossRestarts) {
  KSatConfig config;
  config.num_vars = 120;
  config.num_clauses = 516;  // ratio 4.3
  config.seed = 4242;
  const Cnf cnf = random_ksat(config);
  SolverStats stats;
  std::vector<bool> model;
  const LBool r = solve_cnf(cnf, &model, &stats);
  ASSERT_NE(r, LBool::kUndef);
  if (r == LBool::kTrue) {
    EXPECT_TRUE(model_satisfies(cnf, model));
  }
  EXPECT_GT(stats.conflicts, 0u);
}

}  // namespace
}  // namespace fl::sat

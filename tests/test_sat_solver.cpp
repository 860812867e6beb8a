// CDCL solver unit tests: correctness against brute force, incremental use,
// assumptions, budgets.
#include <gtest/gtest.h>

#include <random>

#include "sat/ksat.h"
#include "sat/solver.h"

namespace fl::sat {
namespace {

bool exhaustive_sat(const Cnf& cnf) {
  if (cnf.num_vars > 20) throw std::logic_error("too big to enumerate");
  for (std::uint64_t m = 0; m < (std::uint64_t{1} << cnf.num_vars); ++m) {
    bool all = true;
    for (const Clause& c : cnf.clauses) {
      bool sat = false;
      for (const Lit l : c) {
        const bool v = ((m >> l.var()) & 1) != 0;
        if (v != l.negated()) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

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

TEST(SatSolver, EmptyFormulaIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(SatSolver, SingleUnit) {
  Solver s;
  const Var v = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(v)}));
  EXPECT_EQ(s.solve(), LBool::kTrue);
  EXPECT_TRUE(s.value_of(v));
}

TEST(SatSolver, ContradictoryUnits) {
  Solver s;
  const Var v = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(v)}));
  EXPECT_FALSE(s.add_clause({neg(v)}));
  EXPECT_EQ(s.solve(), LBool::kFalse);
}

TEST(SatSolver, TautologyIsDropped) {
  Solver s;
  const Var v = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(v), neg(v)}));
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(SatSolver, SimpleImplicationChain) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 10; ++i) v.push_back(s.new_var());
  for (int i = 0; i + 1 < 10; ++i) {
    ASSERT_TRUE(s.add_clause({neg(v[i]), pos(v[i + 1])}));
  }
  ASSERT_TRUE(s.add_clause({pos(v[0])}));
  ASSERT_EQ(s.solve(), LBool::kTrue);
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(s.value_of(v[i])) << i;
}

TEST(SatSolver, PigeonholeUnsat) {
  // 4 pigeons, 3 holes: classic small UNSAT instance requiring real search.
  constexpr int P = 4, H = 3;
  Solver s;
  Var x[P][H];
  for (int p = 0; p < P; ++p) {
    for (int h = 0; h < H; ++h) x[p][h] = s.new_var();
  }
  for (int p = 0; p < P; ++p) {
    Clause c;
    for (int h = 0; h < H; ++h) c.push_back(pos(x[p][h]));
    ASSERT_TRUE(s.add_clause(c));
  }
  for (int h = 0; h < H; ++h) {
    for (int p1 = 0; p1 < P; ++p1) {
      for (int p2 = p1 + 1; p2 < P; ++p2) {
        ASSERT_TRUE(s.add_clause({neg(x[p1][h]), neg(x[p2][h])}));
      }
    }
  }
  EXPECT_EQ(s.solve(), LBool::kFalse);
}

TEST(SatSolver, AssumptionsSelectBranch) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(a), pos(b)}));
  const Lit assume_na[] = {neg(a)};
  ASSERT_EQ(s.solve(assume_na), LBool::kTrue);
  EXPECT_FALSE(s.value_of(a));
  EXPECT_TRUE(s.value_of(b));
  // Solver stays reusable after assumption solving.
  const Lit assume_nb[] = {neg(b)};
  ASSERT_EQ(s.solve(assume_nb), LBool::kTrue);
  EXPECT_TRUE(s.value_of(a));
}

// LBD counts only the search levels above the assumptions (Audemard,
// Lagniez & Simon, SAT 2013). Under k assumptions, each on its own level,
// the first decision on x or y conflicts at level k + 1 and learns
// (~a_1 | ... | ~a_k | ~x) or (... | ~y): a clause that spans k + 1 levels
// but only one of them above the assumptions, so its LBD is 1 and it is
// glue. Both phase hints are true, so whichever of x and y is decided
// first, the same single conflict follows.
TEST(SatSolver, LbdCountsOnlyLevelsAboveAssumptions) {
  constexpr int kAssumptions = 4;
  Solver s;
  const Var x = s.new_var();
  const Var y = s.new_var();
  std::vector<Lit> assumptions;
  for (int i = 0; i < kAssumptions; ++i) {
    assumptions.push_back(pos(s.new_var()));
  }
  // Under the assumptions: x -> y, x -> ~y and y -> x.
  const auto under_assumptions = [&](Lit l1, Lit l2) {
    Clause c{l1, l2};
    for (const Lit a : assumptions) c.push_back(~a);
    return c;
  };
  ASSERT_TRUE(s.add_clause(under_assumptions(neg(x), pos(y))));
  ASSERT_TRUE(s.add_clause(under_assumptions(neg(x), neg(y))));
  ASSERT_TRUE(s.add_clause(under_assumptions(neg(y), pos(x))));
  s.set_phase(x, true);
  s.set_phase(y, true);
  ASSERT_EQ(s.solve(assumptions), LBool::kTrue);
  EXPECT_FALSE(s.value_of(x));
  EXPECT_FALSE(s.value_of(y));
  const SolverStats& stats = s.stats();
  ASSERT_EQ(stats.conflicts, 1u);
  ASSERT_EQ(stats.learned_clauses, 1u);
  EXPECT_EQ(stats.learned_literals, kAssumptions + 1u);
  EXPECT_EQ(stats.lbd_sum, 1u);  // counting every level gives k + 1
  EXPECT_EQ(stats.glue_learned, 1u);
  EXPECT_EQ(stats.max_lbd, 1u);
}

TEST(SatSolver, ConflictingAssumptionsReturnFalse) {
  Solver s;
  const Var a = s.new_var();
  ASSERT_TRUE(s.add_clause({pos(a)}));
  const Lit assume[] = {neg(a)};
  EXPECT_EQ(s.solve(assume), LBool::kFalse);
  // And without the assumption it is still satisfiable.
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(SatSolver, IncrementalTightening) {
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 4; ++i) v.push_back(s.new_var());
  ASSERT_TRUE(s.add_clause({pos(v[0]), pos(v[1]), pos(v[2]), pos(v[3])}));
  ASSERT_EQ(s.solve(), LBool::kTrue);
  // Forbid the returned model, re-solve, repeat: must enumerate and finally
  // exhaust all 15 satisfying assignments.
  int models = 0;
  while (s.solve() == LBool::kTrue) {
    Clause block;
    for (const Var var : v) {
      block.push_back(Lit(var, s.value_of(var)));
    }
    ++models;
    ASSERT_LE(models, 15);
    if (!s.add_clause(block)) break;
  }
  EXPECT_EQ(models, 15);
}

TEST(SatSolver, RandomInstancesMatchBruteForce) {
  std::mt19937_64 seeds(7);
  for (int trial = 0; trial < 60; ++trial) {
    KSatConfig config;
    config.num_vars = 12;
    config.num_clauses = 12 + static_cast<int>(seeds() % 50);
    config.seed = seeds();
    const Cnf cnf = random_ksat(config);
    std::vector<bool> model;
    const LBool got = solve_cnf(cnf, &model);
    const bool expected = exhaustive_sat(cnf);
    ASSERT_EQ(got == LBool::kTrue, expected) << "trial " << trial;
    if (got == LBool::kTrue) {
      EXPECT_TRUE(model_satisfies(cnf, model)) << "trial " << trial;
    }
  }
}

TEST(SatSolver, ConflictBudgetYieldsUndef) {
  // A hard random instance near the phase transition with a tiny budget.
  KSatConfig config;
  config.num_vars = 150;
  config.num_clauses = 645;
  config.seed = 99;
  const Cnf cnf = random_ksat(config);
  Solver s;
  for (int v = 0; v < cnf.num_vars; ++v) s.new_var();
  for (const Clause& c : cnf.clauses) s.add_clause(c);
  s.set_conflict_budget(5);
  EXPECT_EQ(s.solve(), LBool::kUndef);
  // Removing the budget lets it finish.
  s.set_conflict_budget(0);
  EXPECT_NE(s.solve(), LBool::kUndef);
}

TEST(SatSolver, DeadlineYieldsUndef) {
  KSatConfig config;
  config.num_vars = 300;
  config.num_clauses = 1280;
  config.seed = 3;
  const Cnf cnf = random_ksat(config);
  Solver s;
  for (int v = 0; v < cnf.num_vars; ++v) s.new_var();
  for (const Clause& c : cnf.clauses) s.add_clause(c);
  s.set_deadline(std::chrono::steady_clock::now());  // already expired
  EXPECT_EQ(s.solve(), LBool::kUndef);
}

TEST(SatSolver, LastSolveInterruptedDistinguishesBudgetFromAnswer) {
  KSatConfig config;
  config.num_vars = 150;
  config.num_clauses = 645;
  config.seed = 99;
  const Cnf cnf = random_ksat(config);
  Solver s;
  for (int v = 0; v < cnf.num_vars; ++v) s.new_var();
  for (const Clause& c : cnf.clauses) s.add_clause(c);
  s.set_conflict_budget(5);
  ASSERT_EQ(s.solve(), LBool::kUndef);
  EXPECT_TRUE(s.last_solve_interrupted());
  s.set_conflict_budget(0);
  ASSERT_NE(s.solve(), LBool::kUndef);
  EXPECT_FALSE(s.last_solve_interrupted());
}

TEST(SatSolver, InterruptFlagCutsSolveShort) {
  KSatConfig config;
  config.num_vars = 200;
  config.num_clauses = 860;
  config.seed = 17;
  const Cnf cnf = random_ksat(config);
  Solver s;
  for (int v = 0; v < cnf.num_vars; ++v) s.new_var();
  for (const Clause& c : cnf.clauses) s.add_clause(c);
  std::atomic<bool> flag{true};  // raised before the solve starts
  s.set_interrupt(&flag);
  EXPECT_EQ(s.solve(), LBool::kUndef);
  EXPECT_TRUE(s.last_solve_interrupted());
  // Lowering the flag makes the same solver finish for real.
  flag.store(false);
  EXPECT_NE(s.solve(), LBool::kUndef);
  EXPECT_FALSE(s.last_solve_interrupted());
  // Detaching works too.
  s.set_interrupt(nullptr);
  EXPECT_NE(s.solve(), LBool::kUndef);
}

TEST(SatSolver, ExpiredDeadlineReturnsPromptly) {
  KSatConfig config;
  config.num_vars = 300;
  config.num_clauses = 1280;
  config.seed = 3;
  const Cnf cnf = random_ksat(config);
  Solver s;
  for (int v = 0; v < cnf.num_vars; ++v) s.new_var();
  for (const Clause& c : cnf.clauses) s.add_clause(c);
  s.set_deadline(std::chrono::steady_clock::now());
  const auto begin = std::chrono::steady_clock::now();
  EXPECT_EQ(s.solve(), LBool::kUndef);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  EXPECT_TRUE(s.last_solve_interrupted());
  // Deadline checks fire at decision boundaries and conflicts, not only
  // every few hundred propagations, so an expired deadline returns fast.
  EXPECT_LT(waited, 1.0);
}

TEST(SatSolver, StatsArePopulated) {
  KSatConfig config;
  config.num_vars = 60;
  config.num_clauses = 258;
  config.seed = 5;
  const Cnf cnf = random_ksat(config);
  SolverStats stats;
  solve_cnf(cnf, nullptr, &stats);
  EXPECT_GT(stats.decisions, 0u);
  EXPECT_GT(stats.propagations, 0u);
}

TEST(SatSolver, StopReasonTracksWhyTheSolveStopped) {
  KSatConfig config;
  config.num_vars = 150;
  config.num_clauses = 645;
  config.seed = 99;
  const Cnf cnf = random_ksat(config);
  Solver s;
  for (int v = 0; v < cnf.num_vars; ++v) s.new_var();
  for (const Clause& c : cnf.clauses) s.add_clause(c);

  s.set_conflict_budget(5);
  ASSERT_EQ(s.solve(), LBool::kUndef);
  EXPECT_EQ(s.last_stop_reason(), StopReason::kConflictBudget);

  s.set_conflict_budget(0);
  s.set_deadline(std::chrono::steady_clock::now());  // already expired
  ASSERT_EQ(s.solve(), LBool::kUndef);
  EXPECT_EQ(s.last_stop_reason(), StopReason::kDeadline);

  s.set_deadline(std::nullopt);
  std::atomic<bool> flag{true};
  s.set_interrupt(&flag);
  ASSERT_EQ(s.solve(), LBool::kUndef);
  EXPECT_EQ(s.last_stop_reason(), StopReason::kInterrupt);

  // A decisive solve resets the reason to kNone.
  s.set_interrupt(nullptr);
  ASSERT_NE(s.solve(), LBool::kUndef);
  EXPECT_EQ(s.last_stop_reason(), StopReason::kNone);
}

TEST(SatSolver, MemoryBudgetStopsRunawaySolve) {
  // An instance whose clause store alone dwarfs a 1 MB budget: the solve
  // must stop at the first memory checkpoint instead of grinding on.
  KSatConfig config;
  config.num_vars = 20000;
  config.num_clauses = 86000;
  config.seed = 12;
  const Cnf cnf = random_ksat(config);
  SolverConfig solver_config;
  solver_config.memory_limit_mb = 1;
  Solver s(solver_config);
  for (int v = 0; v < cnf.num_vars; ++v) s.new_var();
  for (const Clause& c : cnf.clauses) s.add_clause(c);
  EXPECT_GT(s.memory_bytes(), std::size_t{1} << 20);
  EXPECT_EQ(s.solve(), LBool::kUndef);
  EXPECT_EQ(s.last_stop_reason(), StopReason::kOutOfMemory);
  EXPECT_TRUE(s.last_solve_interrupted());
  EXPECT_GE(s.stats().peak_memory_bytes, s.memory_bytes());
}

TEST(SatSolver, GenerousMemoryBudgetDoesNotTrip) {
  KSatConfig config;
  config.num_vars = 60;
  config.num_clauses = 258;
  config.seed = 5;
  const Cnf cnf = random_ksat(config);
  SolverConfig solver_config;
  solver_config.memory_limit_mb = 512;
  Solver s(solver_config);
  for (int v = 0; v < cnf.num_vars; ++v) s.new_var();
  for (const Clause& c : cnf.clauses) s.add_clause(c);
  EXPECT_NE(s.solve(), LBool::kUndef);
  EXPECT_EQ(s.last_stop_reason(), StopReason::kNone);
  EXPECT_GT(s.stats().peak_memory_bytes, 0u);
}

TEST(SatSolver, StopReasonToStringIsStable) {
  // JSONL consumers key on these strings; changing them breaks resume files.
  EXPECT_STREQ(to_string(StopReason::kNone), "none");
  EXPECT_STREQ(to_string(StopReason::kConflictBudget), "conflict-budget");
  EXPECT_STREQ(to_string(StopReason::kDeadline), "deadline");
  EXPECT_STREQ(to_string(StopReason::kInterrupt), "interrupt");
  EXPECT_STREQ(to_string(StopReason::kOutOfMemory), "out-of-memory");
}

}  // namespace
}  // namespace fl::sat

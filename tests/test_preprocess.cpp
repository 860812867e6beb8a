// SatELite-style preprocessing wrapper (sat/preprocess.h): differential
// fuzz against the plain solver, model extension over eliminated variables,
// frozen-variable protection, and misuse detection.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "sat/preprocess.h"
#include "sat/solver.h"

namespace fl::sat {
namespace {

// Random k-SAT instance: clause widths 1..3, biased toward 3. The
// clause-to-variable ratio sweeps across the SAT/UNSAT transition so the
// fuzz exercises both answers.
std::vector<Clause> random_cnf(std::mt19937_64& rng, int num_vars,
                               int num_clauses) {
  std::vector<Clause> clauses;
  clauses.reserve(num_clauses);
  for (int c = 0; c < num_clauses; ++c) {
    const int width = 1 + static_cast<int>(rng() % 3 == 0 ? rng() % 2 : 2);
    Clause clause;
    for (int l = 0; l < width; ++l) {
      const Var v = static_cast<Var>(rng() % num_vars);
      clause.push_back(Lit(v, (rng() & 1) != 0));
    }
    clauses.push_back(std::move(clause));
  }
  return clauses;
}

bool satisfies_all(const std::vector<Clause>& clauses,
                   const std::vector<bool>& model) {
  for (const Clause& clause : clauses) {
    bool sat = false;
    for (const Lit l : clause) {
      if (model[l.var()] != l.negated()) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

TEST(Preprocess, RandomCnfsAgreeWithPlainSolver) {
  // Differential fuzz: preprocessing must preserve satisfiability, and the
  // extended model must satisfy every *original* clause — including the
  // ones variable elimination deleted.
  std::mt19937_64 rng(2024);
  int sat_seen = 0;
  int unsat_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int num_vars = 12 + static_cast<int>(rng() % 16);
    const int num_clauses =
        static_cast<int>(num_vars * (2.5 + 0.1 * (trial % 30)));
    const std::vector<Clause> clauses = random_cnf(rng, num_vars, num_clauses);

    Solver plain;
    for (int v = 0; v < num_vars; ++v) plain.new_var();
    for (const Clause& c : clauses) plain.add_clause(c);

    Solver inner;
    PreprocessSolver pp(inner);
    for (int v = 0; v < num_vars; ++v) pp.new_var();
    for (const Clause& c : clauses) pp.add_clause(c);

    const LBool expected = plain.solve();
    const LBool got = pp.solve();
    ASSERT_EQ(got, expected) << "trial " << trial;
    if (expected == LBool::kTrue) {
      ++sat_seen;
      const std::vector<bool> model = pp.model();
      ASSERT_EQ(model.size(), static_cast<std::size_t>(num_vars));
      EXPECT_TRUE(satisfies_all(clauses, model)) << "trial " << trial;
      // value_of agrees with the extended model, eliminated vars included.
      for (int v = 0; v < num_vars; ++v) {
        EXPECT_EQ(pp.value_of(v), model[v]) << "trial " << trial;
      }
    } else {
      ++unsat_seen;
    }
  }
  // The ratio sweep must actually have crossed the transition.
  EXPECT_GT(sat_seen, 0);
  EXPECT_GT(unsat_seen, 0);
}

TEST(Preprocess, AssumptionsOverFrozenVarsMatchPlainSolver) {
  // Frozen variables survive elimination, so later assumptions over them
  // restrict exactly the same solution space as in the plain solver.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const int num_vars = 14 + static_cast<int>(rng() % 8);
    const std::vector<Clause> clauses = random_cnf(rng, num_vars, num_vars * 3);

    Solver plain;
    for (int v = 0; v < num_vars; ++v) plain.new_var();
    for (const Clause& c : clauses) plain.add_clause(c);

    Solver inner;
    PreprocessSolver pp(inner);
    for (int v = 0; v < num_vars; ++v) pp.new_var();
    pp.freeze(0);
    pp.freeze(1);
    for (const Clause& c : clauses) pp.add_clause(c);

    for (int combo = 0; combo < 4; ++combo) {
      const std::vector<Lit> assumptions = {Lit(0, (combo & 1) != 0),
                                            Lit(1, (combo & 2) != 0)};
      EXPECT_EQ(pp.solve(assumptions), plain.solve(assumptions))
          << "trial " << trial << " combo " << combo;
      EXPECT_FALSE(pp.is_eliminated(0));
      EXPECT_FALSE(pp.is_eliminated(1));
    }
  }
}

TEST(Preprocess, IncrementalClausesAfterFlushKeepAgreeing) {
  // The attack engine's usage pattern: preprocess the base formula once,
  // then keep adding clauses over frozen interface variables.
  std::mt19937_64 rng(99);
  const int num_vars = 20;
  const std::vector<Clause> base = random_cnf(rng, num_vars, 50);

  Solver plain;
  for (int v = 0; v < num_vars; ++v) plain.new_var();
  for (const Clause& c : base) plain.add_clause(c);

  Solver inner;
  PreprocessSolver pp(inner);
  for (int v = 0; v < num_vars; ++v) pp.new_var();
  for (int v = 0; v < 6; ++v) pp.freeze(v);
  for (const Clause& c : base) pp.add_clause(c);

  ASSERT_EQ(pp.solve(), plain.solve());
  EXPECT_TRUE(pp.flushed());
  for (int round = 0; round < 8; ++round) {
    Clause extra;
    for (int l = 0; l < 2; ++l) {
      extra.push_back(Lit(static_cast<Var>(rng() % 6), (rng() & 1) != 0));
    }
    plain.add_clause(extra);
    pp.add_clause(extra);
    EXPECT_EQ(pp.solve(), plain.solve()) << "round " << round;
  }
}

// A 3-variable formula where x0 has one positive and one negative
// occurrence: bounded variable elimination always accepts it (one
// resolvent, two occurrences), unless it is frozen.
std::vector<Clause> elimination_bait() {
  return {{pos(0), pos(1)}, {neg(0), pos(2)}, {pos(1), pos(2)}};
}

TEST(Preprocess, EliminatedVariableUseThrows) {
  Solver inner;
  PreprocessSolver pp(inner);
  for (int v = 0; v < 3; ++v) pp.new_var();
  for (const Clause& c : elimination_bait()) pp.add_clause(c);
  ASSERT_EQ(pp.solve(), LBool::kTrue);
  ASSERT_TRUE(pp.is_eliminated(0));
  EXPECT_GT(pp.preprocess_stats().eliminated_vars, 0u);
  // Mentioning an eliminated variable after the flush would silently change
  // the formula's meaning; both entry points must refuse.
  EXPECT_THROW(pp.add_clause({pos(0)}), std::logic_error);
  const std::vector<Lit> assumption = {pos(0)};
  EXPECT_THROW(pp.solve(assumption), std::logic_error);
  // The extended model still assigns the eliminated variable consistently:
  // x0=true is needed iff {x0, x1} is otherwise unsatisfied.
  const std::vector<bool> model = pp.model();
  EXPECT_TRUE(satisfies_all(elimination_bait(), model));
}

TEST(Preprocess, FreezeProtectsFromElimination) {
  Solver inner;
  PreprocessSolver pp(inner);
  for (int v = 0; v < 3; ++v) pp.new_var();
  pp.freeze(0);
  for (const Clause& c : elimination_bait()) pp.add_clause(c);
  ASSERT_EQ(pp.solve(), LBool::kTrue);
  EXPECT_FALSE(pp.is_eliminated(0));
  // Both phases of the frozen variable stay queryable.
  const std::vector<Lit> pos0 = {pos(0)};
  const std::vector<Lit> neg0 = {neg(0)};
  EXPECT_EQ(pp.solve(pos0), LBool::kTrue);
  EXPECT_EQ(pp.solve(neg0), LBool::kTrue);
}

TEST(Preprocess, MisuseThrows) {
  // The wrapper refuses a pre-populated inner solver (ids would not
  // coincide) and freezing after the formula was already committed.
  Solver dirty;
  dirty.new_var();
  EXPECT_THROW(PreprocessSolver wrapper(dirty), std::invalid_argument);

  Solver inner;
  PreprocessSolver pp(inner);
  pp.new_var();
  pp.add_clause({pos(0)});
  ASSERT_EQ(pp.solve(), LBool::kTrue);
  EXPECT_THROW(pp.freeze(0), std::logic_error);
}

TEST(Preprocess, StatsAccountForSimplification) {
  // On a redundant formula the passes visibly fire: subsumed clauses,
  // root-level units, and eliminated variables all show up in the stats.
  Solver inner;
  PreprocessSolver pp(inner);
  for (int v = 0; v < 4; ++v) pp.new_var();
  pp.add_clause({pos(3)});                   // root unit
  pp.add_clause({pos(1), pos(2)});
  pp.add_clause({pos(1), pos(2), neg(0)});   // subsumed by the previous
  pp.add_clause({pos(0), pos(1)});           // x0: 1 pos / 1 neg occurrence
  ASSERT_EQ(pp.solve(), LBool::kTrue);
  const PreprocessStats& stats = pp.preprocess_stats();
  EXPECT_TRUE(stats.ran);
  EXPECT_GT(stats.fixed_vars, 0u);
  EXPECT_GT(stats.removed_clauses, 0u);
  EXPECT_LT(stats.output_clauses, stats.input_clauses);
  EXPECT_TRUE(satisfies_all({{pos(3)}, {pos(1), pos(2)}, {pos(0), pos(1)}},
                            pp.model()));
}


TEST(Preprocess, ModelReadsMatchTheEagerExtension) {
  // The wrapper extends the model over eliminated variables only when one
  // of them, or model(), is read. Every read after a SAT solve must equal
  // the eager extension, however the reads are ordered and whether or not
  // a later clause moved the inner assignment. The reference runs the
  // flush by hand: the same Simplifier passes and inner formula, extended
  // right after its solve.
  std::mt19937_64 rng(31);
  int checked = 0;
  int with_eliminated = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int num_vars = 30 + static_cast<int>(rng() % 20);
    const std::vector<Clause> clauses =
        random_cnf(rng, num_vars, num_vars * 3 / 2);
    constexpr int kFrozen = 4;

    Simplifier simp;
    for (int v = 0; v < num_vars; ++v) simp.new_var();
    for (int v = 0; v < kFrozen; ++v) simp.freeze(v);
    for (const Clause& c : clauses) simp.add_clause(c);
    simp.simplify(/*subsume=*/true);
    if (simp.contradiction()) continue;
    // Decisions try true first, so the model holds true values that the
    // inner solver loses when it backtracks.
    Solver reference;
    for (int v = 0; v < num_vars; ++v) reference.new_var();
    for (int v = 0; v < num_vars; ++v) reference.set_phase(v, true);
    bool any_eliminated = false;
    for (Var v = 0; v < num_vars; ++v) {
      const LBool a = simp.value(v);
      if (a != LBool::kUndef) {
        reference.add_clause({Lit(v, a == LBool::kFalse)});
      } else if (simp.is_eliminated(v)) {
        reference.add_clause({neg(v)});
        any_eliminated = true;
      }
    }
    for (Clause& c : simp.take_clauses()) reference.add_clause(std::move(c));
    if (reference.solve() != LBool::kTrue) continue;
    std::vector<bool> eager = reference.model();
    simp.extend_model(eager);
    ++checked;
    if (any_eliminated) ++with_eliminated;

    // 0: read in order; 1: a clause, then reads; 2: a kept variable read
    // while the inner model is live, a clause, then reads; 3: a clause,
    // then model() first.
    for (int mode = 0; mode < 4; ++mode) {
      const std::string label =
          "trial " + std::to_string(trial) + " mode " + std::to_string(mode);
      Solver inner;
      PreprocessSolver pp(inner);
      for (int v = 0; v < num_vars; ++v) pp.new_var();
      for (int v = 0; v < num_vars; ++v) pp.set_phase(v, true);
      for (int v = 0; v < kFrozen; ++v) pp.freeze(v);
      for (const Clause& c : clauses) pp.add_clause(c);
      ASSERT_EQ(pp.solve(), LBool::kTrue) << label;
      if (mode == 2) {
        EXPECT_EQ(pp.value_of(0), eager[0]) << label;
      }
      if (mode != 0) {
        // Satisfied by the model, over frozen variables; adding it
        // backtracks the inner solver.
        pp.add_clause({Lit(0, !eager[0]), Lit(1, !eager[1])});
      }
      if (mode == 3) {
        EXPECT_EQ(pp.model(), eager) << label;
      }
      for (Var v = 0; v < num_vars; ++v) {
        EXPECT_EQ(pp.value_of(v), eager[v]) << label << " var " << v;
      }
      EXPECT_EQ(pp.model(), eager) << label;
    }
  }
  EXPECT_GT(checked, 10);
  EXPECT_GT(with_eliminated, 5);
}

TEST(Preprocess, ReadsAfterAnUndecidedSolveSeeTheInnerSolver) {
  // A timed-out attack reports the key the solver holds after the cut
  // solve: with no SAT answer, every read goes to the inner solver.
  std::mt19937_64 rng(5);
  const int num_vars = 200;
  std::vector<Clause> clauses;
  for (int c = 0; c < 852; ++c) {
    Clause clause;
    for (int l = 0; l < 3; ++l) {
      clause.push_back(Lit(static_cast<Var>(rng() % num_vars), (rng() & 1) != 0));
    }
    clauses.push_back(std::move(clause));
  }
  Solver inner;
  PreprocessSolver pp(inner);
  for (int v = 0; v < num_vars; ++v) pp.new_var();
  for (const Clause& c : clauses) pp.add_clause(c);
  pp.set_conflict_budget(1);
  ASSERT_EQ(pp.solve(), LBool::kUndef);
  for (Var v = 0; v < num_vars; ++v) {
    EXPECT_EQ(pp.value_of(v), inner.value_of(v)) << "var " << v;
  }
  EXPECT_EQ(pp.model(), inner.model());
}

}  // namespace
}  // namespace fl::sat

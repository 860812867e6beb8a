// Cooperative parallel SAT: clause-sharing soundness, cube-and-conquer
// partitioning, and the differential guarantees the attack relies on (a
// parallel solve must agree with a sequential solve on every instance).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "attacks/oracle.h"
#include "attacks/sat_attack.h"
#include "core/full_lock.h"
#include "core/verify.h"
#include "netlist/profiles.h"
#include "sat/ksat.h"
#include "sat/parallel.h"
#include "sat/solver.h"

namespace fl::sat {
namespace {

bool satisfies(const Cnf& cnf, const std::vector<bool>& model) {
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

void load(SolverIface& solver, const Cnf& cnf) {
  for (int v = 0; v < cnf.num_vars; ++v) solver.new_var();
  for (const Clause& c : cnf.clauses) solver.add_clause(c);
}

Cnf phase_transition_cnf(int num_vars, std::uint64_t seed) {
  KSatConfig config;
  config.num_vars = num_vars;
  config.num_clauses = static_cast<int>(num_vars * 4.26);
  config.seed = seed;
  return random_ksat(config);
}

TEST(ParMode, ParseRoundTrips) {
  for (const ParMode mode : {ParMode::kShare, ParMode::kCubes}) {
    const auto parsed = parse_par_mode(to_string(mode));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, mode);
  }
  // There is no attack-level race mode: "race" is an unknown mode.
  EXPECT_FALSE(parse_par_mode("race").has_value());
  EXPECT_FALSE(parse_par_mode("portfolio").has_value());
  EXPECT_FALSE(parse_par_mode("").has_value());
}

TEST(DiversifiedConfig, EveryWorkerGetsADistinctSchedule) {
  // Every worker up to width 16 gets a distinct schedule: the hand-picked
  // table covers k <= 5 and deterministic jitter takes over beyond it (no
  // silent modulo wrap back into the table). Worker 0 keeps the base.
  EXPECT_EQ(diversified_config(0).restart_unit, SolverConfig{}.restart_unit);
  std::vector<SolverConfig> configs;
  for (int k = 0; k < 16; ++k) configs.push_back(diversified_config(k));
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_GT(configs[i].var_decay, 0.0);
    EXPECT_LT(configs[i].var_decay, 1.0);
    EXPECT_GT(configs[i].restart_unit, 0);
    for (std::size_t j = i + 1; j < configs.size(); ++j) {
      EXPECT_TRUE(configs[i].var_decay != configs[j].var_decay ||
                  configs[i].clause_decay != configs[j].clause_decay ||
                  configs[i].restart_unit != configs[j].restart_unit)
          << "configs " << i << " and " << j << " collide";
    }
  }
}

TEST(BuildCubes, PartitionsTheAssignmentSpace) {
  const std::vector<Var> vars = {3, 7, 11};
  const std::vector<std::vector<Lit>> cubes = build_cubes(vars);
  ASSERT_EQ(cubes.size(), 8u);
  // Every total assignment of the split variables is consistent with
  // exactly one cube: the cubes partition the space.
  for (unsigned assignment = 0; assignment < 8; ++assignment) {
    int consistent = 0;
    for (const std::vector<Lit>& cube : cubes) {
      ASSERT_EQ(cube.size(), vars.size());
      bool matches = true;
      for (const Lit l : cube) {
        std::size_t j = 0;
        while (vars[j] != l.var()) ++j;
        const bool value = ((assignment >> j) & 1u) != 0;
        if (value == l.negated()) matches = false;
      }
      if (matches) ++consistent;
    }
    EXPECT_EQ(consistent, 1) << "assignment " << assignment;
  }
}

TEST(ClausePool, DedupsAcrossProducersAndSkipsOwnShard) {
  ClausePool pool(3, 16);
  const std::vector<Lit> c1 = {pos(0), neg(1)};
  const std::vector<Lit> c2 = {pos(2), pos(3), neg(4)};
  EXPECT_TRUE(pool.publish(0, c1, 2));
  EXPECT_FALSE(pool.publish(1, c1, 2));  // duplicate, any producer
  EXPECT_TRUE(pool.publish(1, c2, 2));

  // A consumer never re-imports from its own shard.
  std::size_t delivered = 0;
  const auto count = [&](std::span<const Lit>, std::uint32_t) { ++delivered; };
  EXPECT_EQ(pool.consume(0, 100, count), 1u);  // sees c2 only
  EXPECT_EQ(pool.consume(1, 100, count), 1u);  // sees c1 only
  EXPECT_EQ(pool.consume(2, 100, count), 2u);  // sees both
  EXPECT_EQ(delivered, 4u);
  // Cursors advanced: nothing new on a second pass.
  EXPECT_EQ(pool.consume(2, 100, count), 0u);

  const ClausePool::Stats stats = pool.stats();
  EXPECT_EQ(stats.published, 2u);
  EXPECT_EQ(stats.duplicates, 1u);
  EXPECT_EQ(stats.consumed, 4u);
}

TEST(ClausePool, RespectsBudgetAndCapacity) {
  ClausePool pool(2, 2);  // tiny shards: 2 clauses per producer
  for (int i = 0; i < 4; ++i) {
    const std::vector<Lit> c = {pos(i), neg(i + 1)};
    pool.publish(0, c, 2);
  }
  EXPECT_EQ(pool.stats().published, 2u);
  EXPECT_EQ(pool.stats().overflow, 2u);

  std::size_t delivered = 0;
  const auto count = [&](std::span<const Lit>, std::uint32_t) { ++delivered; };
  EXPECT_EQ(pool.consume(1, 1, count), 1u);  // budget cuts the batch
  EXPECT_EQ(pool.consume(1, 8, count), 1u);  // remainder next call
  EXPECT_EQ(delivered, 2u);
}

TEST(ParallelSolver, Width1MatchesPlainSolver) {
  const Cnf cnf = phase_transition_cnf(80, 5);
  Solver seq;
  load(seq, cnf);
  const LBool expected = seq.solve();

  ParallelConfig config;
  config.num_workers = 1;
  ParallelSolver par(config);
  load(par, cnf);
  EXPECT_EQ(par.solve(), expected);
  EXPECT_EQ(par.parallel_stats().inline_solves, 1u);
  EXPECT_EQ(par.pool(), nullptr);
  if (expected == LBool::kTrue) {
    EXPECT_EQ(par.model(), seq.model());
  }
}

TEST(ParallelSolver, ShareAgreesWithSequentialAcrossSeeds) {
  // The core differential guarantee: importing shared clauses must never
  // flip a SAT/UNSAT answer (every shared clause is a logical consequence
  // of the common formula). Phase-transition instances mix both outcomes.
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    const Cnf cnf = phase_transition_cnf(90, seed);
    Solver seq;
    load(seq, cnf);
    const LBool expected = seq.solve();
    ASSERT_NE(expected, LBool::kUndef);

    ParallelConfig config;
    config.num_workers = 4;
    config.mode = ParMode::kShare;
    config.inline_budget = 0;  // force the fan-out path under test
    ParallelSolver par(config);
    load(par, cnf);
    const LBool got = par.solve();
    EXPECT_EQ(got, expected) << "seed " << seed;
    if (got == LBool::kTrue) {
      EXPECT_TRUE(satisfies(cnf, par.model())) << "seed " << seed;
    }
  }
}

TEST(ParallelSolver, SharedClausesAreLogicalConsequences) {
  // Stronger than the differential: every clause still buffered in the pool
  // must individually follow from the formula (formula AND NOT C is UNSAT).
  const Cnf cnf = phase_transition_cnf(100, 1);
  ParallelConfig config;
  config.num_workers = 4;
  config.mode = ParMode::kShare;
  config.inline_budget = 0;  // force the fan-out path under test
  ParallelSolver par(config);
  load(par, cnf);
  par.solve();
  ASSERT_NE(par.pool(), nullptr);
  const auto shared = par.pool()->snapshot();
  ASSERT_GT(par.stats().exported_clauses, 0u);
  for (const auto& [clause, lbd] : shared) {
    Solver check;
    load(check, cnf);
    for (const Lit l : clause) check.add_clause({~l});
    EXPECT_EQ(check.solve(), LBool::kFalse)
        << "shared clause is not a consequence of the formula";
  }
}

TEST(ParallelSolver, CubesAgreeWithSequentialAcrossSeeds) {
  // Cube-and-conquer must return the sequential answer whether the instance
  // is SAT (some cube finds a model) or UNSAT (every cube refuted).
  for (const std::uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    const Cnf cnf = phase_transition_cnf(90, seed);
    Solver seq;
    load(seq, cnf);
    const LBool expected = seq.solve();
    ASSERT_NE(expected, LBool::kUndef);

    ParallelConfig config;
    config.num_workers = 4;
    config.mode = ParMode::kCubes;
    config.cube_depth = 3;
    config.inline_budget = 0;  // force the fan-out path under test
    ParallelSolver par(config);
    load(par, cnf);
    par.set_split_candidates({0, 1, 2, 3, 4, 5});
    const LBool got = par.solve();
    EXPECT_EQ(got, expected) << "seed " << seed;
    EXPECT_EQ(par.parallel_stats().last_num_cubes, 8u);
    if (got == LBool::kTrue) {
      EXPECT_TRUE(satisfies(cnf, par.model())) << "seed " << seed;
    } else {
      // UNSAT requires the whole partition refuted, not an early exit.
      EXPECT_EQ(par.parallel_stats().cubes_unsat, 8u) << "seed " << seed;
    }
  }
}

TEST(ParallelSolver, AdaptiveProbeKeepsEasySolvesInline) {
  // A solve that finishes inside the probe's conflict budget must never pay
  // for a fan-out: the DIP loop issues hundreds of easy solves for every
  // hard one.
  const Cnf cnf = phase_transition_cnf(60, 4);
  Solver seq;
  load(seq, cnf);
  const LBool expected = seq.solve();

  ParallelConfig config;
  config.num_workers = 4;
  config.mode = ParMode::kShare;
  config.inline_budget = 1u << 20;  // comfortably above the instance
  ParallelSolver par(config);
  load(par, cnf);
  EXPECT_EQ(par.solve(), expected);
  EXPECT_EQ(par.parallel_stats().inline_solves, 1u);
  EXPECT_EQ(par.parallel_stats().parallel_solves, 0u);
  EXPECT_EQ(par.parallel_stats().probe_escalations, 0u);
}

TEST(ParallelSolver, AdaptiveProbeEscalatesHardSolves) {
  // A probe budget the instance cannot fit in must escalate to a fan-out —
  // and the escalated solve still returns the sequential answer.
  const Cnf cnf = phase_transition_cnf(90, 2);
  Solver seq;
  load(seq, cnf);
  const LBool expected = seq.solve();
  ASSERT_NE(expected, LBool::kUndef);

  ParallelConfig config;
  config.num_workers = 4;
  config.mode = ParMode::kShare;
  config.inline_budget = 1;  // trips on the first conflict
  ParallelSolver par(config);
  load(par, cnf);
  EXPECT_EQ(par.solve(), expected);
  EXPECT_GE(par.parallel_stats().probe_escalations, 1u);
  EXPECT_EQ(par.parallel_stats().parallel_solves, 1u);
}

TEST(ParallelSolver, CallerConflictBudgetWinsOverProbe) {
  // When the caller's own conflict budget is tighter than the probe's, a
  // trip is the caller's answer (kConflictBudget), not a cue to fan out K
  // workers the caller did not budget for.
  const Cnf cnf = phase_transition_cnf(120, 5);
  ParallelConfig config;
  config.num_workers = 4;
  config.mode = ParMode::kShare;
  ParallelSolver par(config);
  load(par, cnf);
  par.set_conflict_budget(1);
  EXPECT_EQ(par.solve(), LBool::kUndef);
  EXPECT_EQ(par.last_stop_reason(), StopReason::kConflictBudget);
  EXPECT_EQ(par.parallel_stats().parallel_solves, 0u);
  EXPECT_EQ(par.parallel_stats().probe_escalations, 0u);
}

TEST(ParallelSolver, InterruptSurfacesAsStopReason) {
  const Cnf cnf = phase_transition_cnf(120, 2);
  std::atomic<bool> interrupt{true};
  ParallelConfig config;
  config.num_workers = 2;
  ParallelSolver par(config);
  load(par, cnf);
  par.set_interrupt(&interrupt);
  EXPECT_EQ(par.solve(), LBool::kUndef);
  EXPECT_TRUE(par.last_solve_interrupted());
  EXPECT_EQ(par.last_stop_reason(), StopReason::kInterrupt);
}

TEST(ParallelSolver, DeadlineSurfacesAsStopReason) {
  const Cnf cnf = phase_transition_cnf(120, 3);
  ParallelConfig config;
  config.num_workers = 2;
  ParallelSolver par(config);
  load(par, cnf);
  par.set_deadline(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  EXPECT_EQ(par.solve(), LBool::kUndef);
  EXPECT_EQ(par.last_stop_reason(), StopReason::kDeadline);
}

TEST(ParallelSolver, AggregatesWorkerCounters) {
  const Cnf cnf = phase_transition_cnf(90, 1);
  ParallelConfig config;
  config.num_workers = 3;
  config.mode = ParMode::kShare;
  config.inline_budget = 0;  // force the fan-out path under test
  ParallelSolver par(config);
  load(par, cnf);
  par.solve();
  // Counters must cover every worker's search, not just the winner's.
  const SolverStats& stats = par.stats();
  EXPECT_GT(stats.decisions, 0u);
  EXPECT_GT(stats.propagations, 0u);
  EXPECT_GE(par.parallel_stats().last_winner, 0);
  EXPECT_LT(par.parallel_stats().last_winner, 3);
}

// --- Attack-level integration: share and cubes end to end ----------------

void expect_parallel_attack_breaks(ParMode mode) {
  const netlist::Netlist original = netlist::make_circuit("c432", 90);
  const core::LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({4}));
  const attacks::Oracle oracle(original);
  attacks::AttackOptions options;
  options.timeout_s = 60.0;
  options.portfolio = 4;
  options.par_mode = mode;
  const attacks::AttackResult result =
      attacks::SatAttack(options).run(locked, oracle);
  ASSERT_EQ(result.status, attacks::AttackStatus::kSuccess)
      << to_string(mode);
  EXPECT_TRUE(core::verify_unlocks(original, locked.netlist, result.key, 16,
                                   1, /*sat=*/true))
      << to_string(mode);
}

TEST(ParallelAttack, ShareModeRecoversKey) {
  expect_parallel_attack_breaks(ParMode::kShare);
}

TEST(ParallelAttack, CubesModeRecoversKey) {
  expect_parallel_attack_breaks(ParMode::kCubes);
}

TEST(ParallelAttack, ShareModeTimeoutReported) {
  const netlist::Netlist original = netlist::make_circuit("c432", 96);
  const core::LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({16}));
  const attacks::Oracle oracle(original);
  attacks::AttackOptions options;
  options.timeout_s = 0.05;
  options.portfolio = 2;
  options.par_mode = ParMode::kShare;
  const attacks::AttackResult result =
      attacks::SatAttack(options).run(locked, oracle);
  EXPECT_EQ(result.status, attacks::AttackStatus::kTimeout);
  EXPECT_EQ(result.stop_reason, StopReason::kDeadline);
}

}  // namespace
}  // namespace fl::sat

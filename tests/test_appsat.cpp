// AppSAT: approximate attack; settles early on point-function schemes.
#include <gtest/gtest.h>

#include <tuple>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "attacks/sweep.h"
#include "cnf/miter.h"
#include "core/full_lock.h"
#include "core/verify.h"
#include "locking/rll.h"
#include "locking/sarlock.h"
#include "netlist/generator.h"
#include "netlist/profiles.h"
#include "runtime/jsonl.h"

namespace fl::attacks {
namespace {

using core::LockedCircuit;
using netlist::Netlist;

// The error rate AppSAT estimated for its key (the detail's field).
double estimated_error(RunResult run) {
  return runtime::json_double_field(run.detail.str(), "estimated_error")
      .value();
}

TEST(AppSat, SettlesEarlyOnSarlock) {
  // SARLock with 14 key bits: exact SAT attack needs ~2^14 iterations;
  // AppSAT must settle on an approximate key after a handful, because any
  // surviving key errs on ~2^-14 of inputs.
  const Netlist original = netlist::make_circuit("c432", 111);
  lock::SarLockConfig config;
  config.num_keys = 14;
  const LockedCircuit locked = lock::sarlock_lock(original, config);
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 60.0;
  const RunResult run = attacks::run("appsat", locked.netlist, oracle, options);
  const AttackResult& result = run.result;
  ASSERT_EQ(result.status, AttackStatus::kApproximate);
  EXPECT_LT(result.iterations, 200u);
  EXPECT_LE(estimated_error(run), 0.005);
  // The approximate key is *nearly* correct on random patterns.
  const double err = core::error_rate(original, locked.netlist, result.key,
                                      16, 5);
  EXPECT_LT(err, 0.02);
}

TEST(AppSat, ExactOnEasySchemes) {
  const Netlist original = netlist::make_circuit("c499", 112);
  lock::RllConfig config;
  config.num_keys = 16;
  const LockedCircuit locked = lock::rll_lock(original, config);
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 60.0;
  const AttackResult result =
      attacks::run("appsat", locked.netlist, oracle, options).result;
  if (result.status == AttackStatus::kApproximate) {
    // Legitimate AppSAT outcome: settled on a key below the error
    // threshold. Hold it to that promise on fresh patterns.
    const double err =
        core::error_rate(original, locked.netlist, result.key, 32, 17);
    EXPECT_LT(err, 4 * 0.005);
  } else {
    ASSERT_EQ(result.status, AttackStatus::kSuccess);
    EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist,
                                       result.key));
  }
}

TEST(AppSat, FullLockResistsApproximation) {
  // §2 property (3): Full-Lock is "not susceptible to approximate attacks" —
  // no early settlement, because partial keys still corrupt heavily. With a
  // tight budget the attack times out rather than settling.
  const Netlist original = netlist::make_circuit("c432", 113);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({16}));
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 1.5;
  const AttackResult result =
      attacks::run("appsat", locked.netlist, oracle, options).result;
  // Acceptable outcomes: budget exhausted without settling, an exact
  // finish, or an approximate settlement that genuinely meets the error
  // bar. What must NOT happen is settling on a badly wrong key.
  if (result.status == AttackStatus::kSuccess ||
      result.status == AttackStatus::kApproximate) {
    const double err =
        core::error_rate(original, locked.netlist, result.key, 32, 19);
    EXPECT_LT(err, 4 * 0.005);
  } else {
    EXPECT_EQ(result.status, AttackStatus::kTimeout);
  }
  // Truncated or not, the key is sized to the key width for consumers that
  // index it unconditionally.
  EXPECT_EQ(result.key.size(), locked.netlist.num_keys());
}

TEST(AppSat, CyclicLockEndsOnVerifiedKeyDeterministically) {
  // Settlement checks on a cyclic lock simulate it by relaxation, and lanes
  // that do not settle count as wrong. The attack ends on a key that
  // unlocks, and a second run reproduces the first in every field that is
  // not a wall-clock time.
  const Netlist original = netlist::make_circuit("c432", 101);
  core::FullLockConfig config = core::FullLockConfig::with_plrs(
      {4}, core::ClnTopology::kBanyanNonBlocking, core::CycleMode::kForce);
  config.seed = 2;
  const LockedCircuit locked = core::full_lock(original, config);
  ASSERT_TRUE(locked.netlist.is_cyclic());
  AttackOptions options;
  options.timeout_s = 120.0;
  const auto attack = [&] {
    const Oracle oracle(original);
    return attacks::run("appsat", locked.netlist, oracle, options);
  };
  const RunResult run_a = attack();
  const RunResult run_b = attack();
  const AttackResult& a = run_a.result;
  const AttackResult& b = run_b.result;
  ASSERT_EQ(a.status, AttackStatus::kSuccess);
  EXPECT_EQ(core::check_key(original, locked.netlist, a.key),
            core::KeyCheck::kProved);
  // Settlement estimates ran: each charges 8 x 64 queries on
  // top of one query per DIP.
  EXPECT_GT(a.oracle_queries, a.iterations);

  // Every field except the wall-clock times, as one comparable row.
  const auto fields = [](const AttackResult& r) {
    const sat::SolverStats& s = r.solver_stats;
    const sat::PreprocessStats& p = r.preprocess;
    return std::make_tuple(
        r.status, r.key, r.iterations, r.mean_clause_var_ratio, r.stop_reason,
        r.oracle_queries, r.key_confirmed, r.banned_keys, r.base_clauses,
        r.base_vars, r.clauses_added, r.vars_added, r.cone_encoding,
        s.decisions, s.propagations,
        s.binary_propagations, s.conflicts, s.restarts, s.learned_clauses,
        s.learned_literals, s.learned_binary, s.lbd_sum, s.glue_learned,
        s.max_lbd, s.promoted_clauses, s.removed_clauses,
        s.db_size_after_reduce, s.simplify_removed_clauses,
        s.simplify_removed_literals, s.peak_memory_bytes, p.ran,
        p.budget_exhausted, p.input_vars, p.input_clauses, p.output_clauses,
        p.fixed_vars, p.eliminated_vars, p.removed_clauses,
        p.subsumed_clauses, p.strengthened_literals, p.resolvents_added);
  };
  EXPECT_EQ(fields(a), fields(b));
  EXPECT_EQ(estimated_error(run_a), estimated_error(run_b));
}

TEST(AppSat, SweepRecordRefutesASettledSarlockKey) {
  // AppSAT settles on a SARLock key once its sampled error is small, and
  // reports it as approximate, not as a success. The sweep's record
  // carries the proof's verdict too: on this 10-input host the settled key
  // is wrong.
  const Netlist host = netlist::generate_circuit(
      {.num_inputs = 10, .num_outputs = 5, .num_gates = 60, .seed = 1});
  SweepCell cell;
  cell.scheme = "sarlock";
  cell.params = "keys=6";
  cell.seed = 1;
  SweepSpec spec;
  spec.attack = "appsat";
  std::string record;
  const SweepResult result = run_sweep(
      {&host, 1}, {cell}, spec, {}, {},
      [&record](runtime::JsonObject o) { record = o.str(); });
  ASSERT_EQ(result.report.ok, 1u);
  EXPECT_EQ(result.cells[0].run.key_check, core::KeyCheck::kRefuted);
  EXPECT_NE(record.find("\"status\":\"approximate\""), std::string::npos)
      << record;
  EXPECT_EQ(runtime::json_bool_field(record, "approximate"), std::nullopt)
      << record;
  EXPECT_NE(record.find("\"key_check\":\"refuted\""), std::string::npos)
      << record;
}

}  // namespace
}  // namespace fl::attacks

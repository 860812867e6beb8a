// Shared DIP engine (attacks/engine.h): every oracle-guided attack recovers
// keys through the same loop, maps exhausted budgets to the same statuses,
// and feeds the same per-iteration trace records. The attacks are picked by
// name through the one entry point, attacks::run (attacks/registry.h).
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "cnf/miter.h"
#include "core/full_lock.h"
#include "locking/scheme.h"
#include "netlist/profiles.h"
#include "runtime/jsonl.h"

namespace fl::attacks {
namespace {

using core::LockedCircuit;
using netlist::Netlist;

const std::vector<std::string>& engine_attacks() {
  static const std::vector<std::string> names = {"sat", "cycsat", "appsat",
                                                 "double-dip"};
  return names;
}

TEST(AttackEngine, AllAttacksRecoverVerifiedKeys) {
  // Differential check: the same lock falls to every engine-backed attack,
  // and every recovered key passes the SAT-based unlock verifier. The lock
  // is acyclic, so every attack runs the key-cone encoding behind the
  // base-miter preprocessor (the engine's one rule). AppSAT ends exact on
  // it: no settlement check passes before the last DIP.
  const Netlist original = netlist::make_circuit("c432", 41);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({4}));
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 60.0;
  for (const std::string& name : engine_attacks()) {
    const AttackResult result =
        attacks::run(name, locked.netlist, oracle, options).result;
    ASSERT_EQ(result.status, AttackStatus::kSuccess) << name;
    EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist,
                                       result.key))
        << name;
    EXPECT_EQ(result.key.size(), locked.key_bits()) << name;
    EXPECT_TRUE(result.cone_encoding) << name;
    EXPECT_TRUE(result.preprocess.ran) << name;
    // The engine's uniform per-iteration accounting holds for every attack.
    EXPECT_GT(result.mean_clause_var_ratio, 1.0) << name;
    if (result.iterations > 0) {
      EXPECT_GT(result.mean_iteration_seconds, 0.0) << name;
      EXPECT_LE(result.mean_iteration_seconds * result.iterations,
                result.seconds)
          << name;
    }
  }
}

TEST(AttackEngine, TimeoutStatusIdenticalAcrossAttacks) {
  const Netlist original = netlist::make_circuit("c432", 42);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({16}));
  const Oracle oracle(original);
  for (const std::string& name : engine_attacks()) {
    AttackOptions options;
    options.timeout_s = 0.05;  // far too little for a 16x16 PLR
    const AttackResult result =
        attacks::run(name, locked.netlist, oracle, options).result;
    EXPECT_EQ(result.status, AttackStatus::kTimeout) << name;
    EXPECT_EQ(result.stop_reason, sat::StopReason::kDeadline) << name;
    EXPECT_LT(result.seconds, 5.0) << name;
    EXPECT_EQ(result.key.size(), locked.key_bits()) << name;
  }
}

TEST(AttackEngine, InterruptStatusIdenticalAcrossAttacks) {
  const Netlist original = netlist::make_circuit("c432", 43);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({8}));
  const Oracle oracle(original);
  const std::atomic<bool> interrupt{true};  // cancelled before the attack
  for (const std::string& name : engine_attacks()) {
    AttackOptions options;
    options.interrupt = &interrupt;
    const AttackResult result =
        attacks::run(name, locked.netlist, oracle, options).result;
    EXPECT_EQ(result.status, AttackStatus::kInterrupted) << name;
    EXPECT_EQ(result.stop_reason, sat::StopReason::kInterrupt) << name;
    EXPECT_EQ(result.key.size(), locked.key_bits()) << name;
  }
}

TEST(AttackEngine, MemoryBudgetStatusIdenticalAcrossAttacks) {
  const Netlist original = netlist::make_circuit("c880", 44);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({16, 16}));
  const Oracle oracle(original);
  for (const std::string& name : engine_attacks()) {
    AttackOptions options;
    options.memory_limit_mb = 1;
    const AttackResult result =
        attacks::run(name, locked.netlist, oracle, options).result;
    EXPECT_EQ(result.status, AttackStatus::kOutOfMemory) << name;
    EXPECT_EQ(result.stop_reason, sat::StopReason::kOutOfMemory) << name;
    EXPECT_EQ(result.key.size(), locked.key_bits()) << name;
  }
}

TEST(AttackEngine, TraceSinkRecordsEveryIteration) {
  const Netlist original = netlist::make_circuit("c432", 45);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({4}));
  const Oracle oracle(original);
  std::ostringstream out;
  JsonlTraceSink sink(out);
  AttackOptions options;
  options.timeout_s = 60.0;
  options.trace = &sink;
  const AttackResult result =
      attacks::run("sat", locked.netlist, oracle, options).result;
  ASSERT_EQ(result.status, AttackStatus::kSuccess);
  ASSERT_GT(result.iterations, 0u);

  std::istringstream lines(out.str());
  std::string line;
  std::uint64_t records = 0;
  while (std::getline(lines, line)) {
    const auto attack = runtime::json_string_field(line, "attack");
    ASSERT_TRUE(attack.has_value()) << line;
    EXPECT_EQ(*attack, "sat");
    // One record per counted iteration, in order.
    const auto iter = runtime::json_int_field(line, "iter");
    ASSERT_TRUE(iter.has_value()) << line;
    EXPECT_EQ(static_cast<std::uint64_t>(*iter), records);
    const auto dip = runtime::json_string_field(line, "dip");
    ASSERT_TRUE(dip.has_value()) << line;
    EXPECT_EQ(dip->size(), locked.netlist.num_inputs());
    for (const char c : *dip) EXPECT_TRUE(c == '0' || c == '1') << line;
    // The numeric solve fields are always present (values vary per run).
    for (const char* key : {"cv_ratio", "decisions", "propagations",
                            "conflicts", "solve_s"}) {
      EXPECT_NE(line.find('"' + std::string(key) + "\":"), std::string::npos)
          << key << " missing from " << line;
    }
    // No sweep driver involved: records carry no cell stamp.
    EXPECT_FALSE(runtime::json_int_field(line, "cell").has_value()) << line;
    ++records;
  }
  EXPECT_EQ(records, result.iterations);
}

TEST(AttackEngine, TraceCellStampedAndAttackLabeled) {
  const Netlist original = netlist::make_circuit("c432", 46);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({4}));
  const Oracle oracle(original);
  std::ostringstream out;
  JsonlTraceSink sink(out);
  AttackOptions options;
  options.timeout_s = 60.0;
  options.trace = &sink;
  options.trace_cell = 7;
  RunResult run = attacks::run("double-dip", locked.netlist, oracle, options);
  ASSERT_EQ(run.result.status, AttackStatus::kSuccess);

  std::istringstream lines(out.str());
  std::string line;
  std::uint64_t two_dip_records = 0;
  std::uint64_t mop_up_records = 0;
  while (std::getline(lines, line)) {
    const auto cell = runtime::json_int_field(line, "cell");
    ASSERT_TRUE(cell.has_value()) << line;
    EXPECT_EQ(*cell, 7);
    const auto attack = runtime::json_string_field(line, "attack");
    ASSERT_TRUE(attack.has_value()) << line;
    // The 2-DIP loop and its SAT-attack mop-up share the sink; each labels
    // its own records.
    if (*attack == "double-dip") {
      ++two_dip_records;
    } else {
      EXPECT_EQ(*attack, "sat") << line;
      ++mop_up_records;
    }
  }
  EXPECT_EQ(two_dip_records, run.result.iterations);
  EXPECT_EQ(runtime::json_int_field(run.detail.str(), "fallback_iterations"),
            static_cast<long long>(mop_up_records));
}

TEST(AttackEngine, BudgetGuardMapsEachBudgetToItsStatus) {
  AttackOptions unlimited;
  EXPECT_FALSE(BudgetGuard(unlimited).limited());
  EXPECT_FALSE(BudgetGuard(unlimited).exhausted().has_value());

  AttackOptions timed;
  timed.timeout_s = 1e-9;
  const BudgetGuard expired(timed);
  ASSERT_TRUE(expired.exhausted().has_value());
  EXPECT_EQ(*expired.exhausted(), AttackStatus::kTimeout);

  const std::atomic<bool> interrupt{true};
  AttackOptions cancelled;
  cancelled.interrupt = &interrupt;
  const BudgetGuard stopped(cancelled);
  ASSERT_TRUE(stopped.exhausted().has_value());
  // Cancellation wins over any other budget: it is not the paper's "TO".
  EXPECT_EQ(*stopped.exhausted(), AttackStatus::kInterrupted);
}

// Key confirmation's soundness guard, on one committed DIP of a SARLock
// lock: every SARLock DIP flips exactly one copy's output, so one copy's key
// reproduces the oracle (the candidate) and the other's is refuted by it.
TEST(KeyConfirmation, GuardRejectsAKeyThatViolatesACommittedDip) {
  const Netlist original = netlist::make_circuit("c432", 1);
  const LockedCircuit locked = lock::lock_with(
      "sarlock", original, lock::make_options(2, {}, "keys=6"));
  const Oracle oracle(original);
  const AttackOptions options;
  const BudgetGuard budget(options);
  MiterContext ctx(locked.netlist, MiterContext::double_key(), options);
  ctx.finalize_encoding();
  ASSERT_FALSE(ctx.candidate().has_value());
  EXPECT_THROW(ctx.check_candidate(budget), std::logic_error);
  EXPECT_THROW(ctx.set_candidate(std::vector<bool>(3)), std::invalid_argument);
  ASSERT_EQ(ctx.solver().solve(ctx.dip_assumptions()), sat::LBool::kTrue);
  const std::vector<bool> pattern = ctx.extract_pattern();
  const std::vector<bool> key0 = ctx.extract_key(ctx.key_copy(0));
  const std::vector<bool> key1 = ctx.extract_key(ctx.key_copy(1));
  const std::vector<bool> response = oracle.query(pattern);
  ctx.update_candidate(response);
  ASSERT_TRUE(ctx.candidate().has_value());
  const std::vector<bool> consistent = *ctx.candidate();
  ASSERT_TRUE(consistent == key0 || consistent == key1);
  const std::vector<bool> refuted = consistent == key0 ? key1 : key0;
  ASSERT_NE(refuted, consistent);

  // Before the DIP is committed nothing refutes either key.
  ctx.set_candidate(refuted);
  EXPECT_EQ(ctx.check_candidate(budget), sat::LBool::kTrue);

  ctx.constrain_io(pattern, response);
  ctx.set_candidate(refuted);
  EXPECT_EQ(ctx.check_candidate(budget), sat::LBool::kFalse);
  // The refuted key on copy 0 contradicts the committed constraint, so the
  // DIP solve under it is UNSAT at once: exactly the answer the guard stops
  // from being read as a proof.
  EXPECT_EQ(ctx.solver().solve(ctx.dip_assumptions()), sat::LBool::kFalse);

  ctx.set_candidate(consistent);
  EXPECT_EQ(ctx.check_candidate(budget), sat::LBool::kTrue);
  ctx.set_candidate(locked.correct_key);
  EXPECT_EQ(ctx.check_candidate(budget), sat::LBool::kTrue);
}

// Answers every DIP like the SAT attack, then fixes the key the oracle just
// refuted as the candidate, so every DIP solve under a candidate is UNSAT
// for the wrong reason.
class RefutedCandidatePolicy final : public DipPolicy {
 public:
  explicit RefutedCandidatePolicy(const Oracle& oracle) : oracle_(oracle) {}

  LoopAction on_dip(MiterContext& ctx, const BudgetGuard&,
                    const std::vector<bool>& pattern, AttackResult&) override {
    const std::vector<bool> key0 = ctx.extract_key(ctx.key_copy(0));
    const std::vector<bool> key1 = ctx.extract_key(ctx.key_copy(1));
    const std::vector<bool> response = oracle_.query(pattern);
    ctx.update_candidate(response);
    const bool copy0_refuted =
        !ctx.candidate().has_value() || *ctx.candidate() != key0;
    ctx.constrain_io(pattern, response);
    ctx.set_candidate(copy0_refuted ? key0 : key1);
    return LoopAction::kContinue;
  }

 private:
  const Oracle& oracle_;
};

TEST(KeyConfirmation, LoopNeverReportsARefutedCandidate) {
  const Netlist original = netlist::make_circuit("c432", 1);
  const LockedCircuit locked = lock::lock_with(
      "sarlock", original, lock::make_options(2, {}, "keys=6"));
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 60.0;
  const BudgetGuard budget(options);
  MiterContext ctx(locked.netlist, MiterContext::double_key(), options);
  RefutedCandidatePolicy policy(oracle);
  const AttackResult result =
      DipLoop(oracle, options, budget, "refuted").run(ctx, policy);
  ASSERT_EQ(result.status, AttackStatus::kSuccess);
  // Every candidate failed the guard, so the loop fell back to the free
  // miter and ended on key extraction.
  EXPECT_FALSE(result.key_confirmed);
  EXPECT_EQ(result.iterations, 63u);  // 2^6 - 1, as without candidates
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist, result.key));
}

TEST(AttackRegistry, UnknownNameThrowsAndListsTheNames) {
  EXPECT_EQ(attack_names(), "auto, sat, cycsat, appsat, double-dip, fall");
  for (const char* name :
       {"auto", "sat", "cycsat", "appsat", "double-dip", "fall"}) {
    EXPECT_TRUE(known_attack(name)) << name;
  }
  EXPECT_FALSE(known_attack("nonesuch"));
  const Netlist original = netlist::make_circuit("c432", 49);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({4}));
  const Oracle oracle(original);
  try {
    attacks::run("nonesuch", locked.netlist, oracle);
    FAIL() << "unknown attack name accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'nonesuch'"), std::string::npos) << what;
    EXPECT_NE(what.find(attack_names()), std::string::npos) << what;
  }
}

TEST(AttackRegistry, CyclicLocksRunAndReportCycSat) {
  // "auto" follows cyclicity, and Double-DIP (acyclic-only) degrades to
  // CycSAT; either way the reported name is the attack that actually ran.
  const Netlist original = netlist::make_circuit("c432", 101);
  core::FullLockConfig config = core::FullLockConfig::with_plrs(
      {4}, core::ClnTopology::kBanyanNonBlocking, core::CycleMode::kForce);
  config.seed = 7;
  const LockedCircuit locked = core::full_lock(original, config);
  ASSERT_TRUE(locked.netlist.is_cyclic());
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 120.0;
  for (const char* name : {"auto", "double-dip"}) {
    RunResult run = attacks::run(name, locked.netlist, oracle, options);
    EXPECT_EQ(run.attack, "cycsat") << name;
    ASSERT_EQ(run.result.status, AttackStatus::kSuccess) << name;
    EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist,
                                       run.result.key))
        << name;
    // Cyclic locks end on key extraction, never on confirmation.
    EXPECT_EQ(runtime::json_bool_field(run.detail.str(), "key_confirmed"),
              false)
        << name;
  }
}

TEST(AttackRegistry, DetailCarriesTheAttackSpecificFields) {
  const Netlist original = netlist::make_circuit("c432", 50);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({4}));
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 60.0;

  // key_confirmed is the one field every attack's detail carries.
  RunResult sat = attacks::run("auto", locked.netlist, oracle, options);
  EXPECT_EQ(sat.attack, "sat");
  EXPECT_EQ(runtime::json_bool_field(sat.detail.str(), "key_confirmed"),
            sat.result.key_confirmed);

  // AppSAT settles on this lock. That it settled is its status; the detail
  // does not repeat it.
  RunResult app = attacks::run("appsat", locked.netlist, oracle, options);
  ASSERT_EQ(app.result.status, AttackStatus::kApproximate);
  const std::string app_detail = app.detail.str();
  EXPECT_FALSE(runtime::json_bool_field(app_detail, "approximate").has_value())
      << app_detail;
  const auto error = runtime::json_double_field(app_detail, "estimated_error");
  ASSERT_TRUE(error.has_value()) << app_detail;
  EXPECT_LE(*error, 0.005);

  RunResult dd = attacks::run("double-dip", locked.netlist, oracle, options);
  ASSERT_EQ(dd.result.status, AttackStatus::kSuccess);
  const std::string dd_detail = dd.detail.str();
  EXPECT_TRUE(runtime::json_int_field(dd_detail, "fallback_iterations")
                  .has_value())
      << dd_detail;
  EXPECT_EQ(runtime::json_bool_field(dd_detail, "key_confirmed"),
            dd.result.key_confirmed)
      << dd_detail;
}

}  // namespace
}  // namespace fl::attacks

// Oracle-guided SAT attack: breaks every acyclic scheme at small key sizes,
// respects budgets, reports faithful statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "cnf/miter.h"
#include "core/full_lock.h"
#include "core/verify.h"
#include "locking/antisat.h"
#include "locking/crosslock.h"
#include "locking/lutlock.h"
#include "locking/rll.h"
#include "locking/sarlock.h"
#include "locking/scheme.h"
#include "netlist/profiles.h"

namespace fl::attacks {
namespace {

using core::LockedCircuit;
using netlist::Netlist;

void expect_breaks(const Netlist& original, const LockedCircuit& locked,
                   std::uint64_t max_expected_iterations = 0) {
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 60.0;
  const AttackResult result =
      attacks::run("sat", locked.netlist, oracle, options).result;
  ASSERT_EQ(result.status, AttackStatus::kSuccess) << locked.scheme;
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist, result.key))
      << locked.scheme;
  if (max_expected_iterations != 0) {
    EXPECT_LE(result.iterations, max_expected_iterations) << locked.scheme;
  }
  EXPECT_EQ(result.oracle_queries, result.iterations);
}

TEST(SatAttack, BreaksRll) {
  const Netlist original = netlist::make_circuit("c432", 90);
  lock::RllConfig config;
  config.num_keys = 24;
  expect_breaks(original, lock::rll_lock(original, config), 64);
}

TEST(SatAttack, BreaksLutLock) {
  const Netlist original = netlist::make_circuit("c499", 91);
  lock::LutLockConfig config;
  config.num_luts = 8;
  expect_breaks(original, lock::lutlock_lock(original, config), 128);
}

TEST(SatAttack, BreaksSmallCrossLock) {
  const Netlist original = netlist::make_circuit("c880", 92);
  lock::CrossLockConfig config;
  config.num_sources = 8;
  config.num_destinations = 8;
  expect_breaks(original, lock::crosslock_lock(original, config));
}

TEST(SatAttack, BreaksSmallFullLock) {
  const Netlist original = netlist::make_circuit("c432", 93);
  expect_breaks(original,
                core::full_lock(original, core::FullLockConfig::with_plrs({4})));
}

TEST(SatAttack, SarlockNeedsExponentialIterations) {
  // The SAT attack still *succeeds* on SARLock, but needs ~2^k DIPs —
  // the paper's N-vs-M tradeoff (§2). With k=6: ~64 iterations.
  const Netlist original = netlist::make_circuit("c432", 94);
  lock::SarLockConfig config;
  config.num_keys = 6;
  const LockedCircuit locked = lock::sarlock_lock(original, config);
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 60.0;
  const AttackResult result =
      attacks::run("sat", locked.netlist, oracle, options).result;
  ASSERT_EQ(result.status, AttackStatus::kSuccess);
  EXPECT_GE(result.iterations, 32u);  // close to 2^6
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist, result.key));
}

TEST(SatAttack, SarlockDipConstraintsAddNoVariables) {
  // Per-DIP growth guard. Each DIP constraint is committed as its projection
  // onto the key variables: on SARLock it says "K differs from the DIP's
  // compared bits, or K is the correct key", which needs no Tseytin
  // variable and at most one clause per key bit per key copy — 16 here. An
  // unprojected pair of copies adds 30 variables and up to 90 clauses.
  const Netlist original = netlist::make_circuit("c432", 1);
  const LockedCircuit locked = lock::lock_with(
      "sarlock", original, lock::make_options(2, {}, "keys=8"));
  ASSERT_EQ(locked.key_bits(), 8u);
  const Oracle oracle(original);
  struct MemorySink final : IterationTraceSink {
    std::vector<IterationTrace> records;
    void record(const IterationTrace& t) override { records.push_back(t); }
  } sink;
  AttackOptions options;
  options.timeout_s = 60.0;
  options.trace = &sink;
  const AttackResult result =
      attacks::run("sat", locked.netlist, oracle, options).result;
  ASSERT_EQ(result.status, AttackStatus::kSuccess);
  ASSERT_EQ(sink.records.size(), result.iterations);
  EXPECT_EQ(result.iterations, 255u);  // 2^8 - 1: SARLock's DIP count
  long long vars_added = 0;
  long long max_clauses_added = 0;
  for (const IterationTrace& t : sink.records) {
    vars_added += t.vars_added;
    max_clauses_added = std::max(max_clauses_added, t.clauses_added);
  }
  EXPECT_EQ(vars_added, 0);
  EXPECT_LE(max_clauses_added, 2 * 8);
  // Each SARLock DIP flips exactly one copy's output, so the other copy's
  // key is a candidate after every DIP and the loop ends on confirmation.
  EXPECT_TRUE(result.key_confirmed);
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist, result.key));
}

TEST(SatAttack, CyclicRepeatedDipsBanStatefulKeys) {
  // On a cyclic lock the CNF admits stateful keys that dodge the DIP
  // constraints, so the same DIP comes back; the policy then bans every key
  // copy that does not pin the oracle's response. Every copy's key must be
  // read from the model before the first ban (a ban backtracks the solver,
  // and the base-miter preprocessor caches the model), and the loop must
  // still end on a key that unlocks the circuit. A repeated DIP reuses the
  // response stored with it, so the oracle is asked once per iteration. A
  // cyclic lock always gets the full-circuit encoding and ends on key
  // extraction, never on confirmation.
  const Netlist original = netlist::make_circuit("c432", 1);
  const LockedCircuit locked = lock::lock_with(
      "full-lock", original, lock::make_options(3, {}, "sizes=4,cycle=allow"));
  ASSERT_TRUE(locked.netlist.is_cyclic());
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 60.0;
  const AttackResult result =
      attacks::run("sat", locked.netlist, oracle, options).result;
  ASSERT_EQ(result.status, AttackStatus::kSuccess);
  EXPECT_FALSE(result.cone_encoding);
  EXPECT_GT(result.banned_keys, 0u);
  EXPECT_EQ(result.oracle_queries, result.iterations);
  EXPECT_FALSE(result.key_confirmed);
  EXPECT_EQ(core::check_key(original, locked.netlist, result.key),
            core::KeyCheck::kProved);
}

TEST(SatAttack, IterationLimitHonored) {
  const Netlist original = netlist::make_circuit("c432", 95);
  lock::SarLockConfig config;
  config.num_keys = 12;
  const LockedCircuit locked = lock::sarlock_lock(original, config);
  const Oracle oracle(original);
  AttackOptions options;
  options.max_iterations = 5;
  const AttackResult result =
      attacks::run("sat", locked.netlist, oracle, options).result;
  EXPECT_EQ(result.status, AttackStatus::kIterationLimit);
  EXPECT_EQ(result.iterations, 5u);
  // Even a truncated attack reports a best-effort key sized to the key
  // width: consumers (AppSAT warm starts, JSONL writers) index it
  // unconditionally.
  EXPECT_EQ(result.key.size(), locked.key_bits());
}

TEST(SatAttack, TimeoutReported) {
  const Netlist original = netlist::make_circuit("c432", 96);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({16}));
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 0.05;  // far too little for a 16x16 PLR
  const AttackResult result =
      attacks::run("sat", locked.netlist, oracle, options).result;
  EXPECT_EQ(result.status, AttackStatus::kTimeout);
  EXPECT_EQ(result.stop_reason, sat::StopReason::kDeadline);
  EXPECT_LT(result.seconds, 5.0);  // deadline actually cuts the solve short
  EXPECT_EQ(result.key.size(), locked.key_bits());  // best-effort key
}

TEST(SatAttack, MemoryBudgetSurfacesAsOutOfMemory) {
  // A lock big enough that the solver's tracked memory crosses a 1 MB
  // budget almost immediately: the attack must stop with kOutOfMemory
  // instead of growing until the process is killed.
  const Netlist original = netlist::make_circuit("c880", 97);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({16, 16}));
  const Oracle oracle(original);
  AttackOptions options;
  options.memory_limit_mb = 1;
  const AttackResult result =
      attacks::run("sat", locked.netlist, oracle, options).result;
  EXPECT_EQ(result.status, AttackStatus::kOutOfMemory);
  EXPECT_EQ(result.stop_reason, sat::StopReason::kOutOfMemory);
  EXPECT_EQ(result.key.size(), locked.key_bits());
}

TEST(SatAttack, KeylessCircuitTrivial) {
  const Netlist c17 = netlist::make_c17();
  const Oracle oracle(c17);
  const AttackResult result = attacks::run("sat", c17, oracle).result;
  EXPECT_EQ(result.status, AttackStatus::kSuccess);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(SatAttack, RatioStatTracked) {
  const Netlist original = netlist::make_circuit("c432", 97);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({4}));
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 60.0;
  const AttackResult result =
      attacks::run("sat", locked.netlist, oracle, options).result;
  ASSERT_EQ(result.status, AttackStatus::kSuccess);
  EXPECT_GT(result.mean_clause_var_ratio, 1.0);
  EXPECT_LT(result.mean_clause_var_ratio, 10.0);
}

TEST(SatAttack, MeanIterationTimesOnlyTheDipLoop) {
  const Netlist original = netlist::make_circuit("c432", 98);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({8}));
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 60.0;
  const AttackResult result =
      attacks::run("sat", locked.netlist, oracle, options).result;
  ASSERT_EQ(result.status, AttackStatus::kSuccess);
  ASSERT_GT(result.iterations, 0u);
  EXPECT_GT(result.mean_iteration_seconds, 0.0);
  // The mean covers the DIP-loop body only, so iterations * mean can never
  // exceed the total wall time (which adds miter encoding + key extraction).
  EXPECT_LE(result.mean_iteration_seconds * result.iterations,
            result.seconds);
}

TEST(SatAttack, MeanIterationZeroWhenNoIterations) {
  const Netlist c17 = netlist::make_c17();
  const Oracle oracle(c17);
  const AttackResult result = attacks::run("sat", c17, oracle).result;
  ASSERT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.mean_iteration_seconds, 0.0);
}

}  // namespace
}  // namespace fl::attacks

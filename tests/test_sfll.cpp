// SFLL-HD: stripped function + Hamming-distance restore unit, and the
// FALL-style structural/functional attack that defeats it. Removal alone
// (stripping the restore unit) leaves the attacker with the *stripped*
// function, which errs on the whole h-shell around K* — SFLL's
// removal-resilience claim — while FALL closes the loop by solving for K*
// from the stripped function's error patterns.
#include <gtest/gtest.h>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "cnf/miter.h"
#include "core/verify.h"
#include "locking/scheme.h"
#include "locking/sfll_hd.h"
#include "netlist/profiles.h"
#include "netlist/simulator.h"
#include "runtime/jsonl.h"

namespace fl {
namespace {

using core::LockedCircuit;
using netlist::Netlist;

LockedCircuit lock_sfll(const Netlist& original, int keys, int hd,
                        std::uint64_t seed = 5) {
  const std::string params =
      "keys=" + std::to_string(keys) + ",hd=" + std::to_string(hd);
  return lock::lock_with("sfll-hd", original,
                         lock::make_options(seed, {}, params));
}

TEST(SfllHd, CorrectKeyUnlocksWithSatProof) {
  const Netlist original = netlist::make_circuit("c432", 2);
  const LockedCircuit locked = lock_sfll(original, 8, 2);
  EXPECT_EQ(locked.scheme, "sfll-hd");
  EXPECT_EQ(locked.key_bits(), 8u);
  EXPECT_FALSE(locked.netlist.is_cyclic());
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist,
                                     locked.correct_key));
}

TEST(SfllHd, WrongKeysCorruptOnlyAPointFunctionSliver) {
  const Netlist original = netlist::make_circuit("c432", 2);
  const LockedCircuit locked = lock_sfll(original, 8, 1);
  // Random wrong keys disagree with the oracle only where their restore
  // shell or K*'s perturb shell fires: a vanishing fraction of patterns.
  const core::CorruptionStats corruption =
      core::output_corruption(original, locked, 8, 4, 3);
  EXPECT_GT(corruption.mean_error_rate, 0.0);
  EXPECT_LT(corruption.mean_error_rate, 0.05);
}

TEST(SfllHd, HdZeroDegeneratesToSingleShellAndStillUnlocks) {
  const Netlist original = netlist::make_circuit("c432", 2);
  const LockedCircuit locked = lock_sfll(original, 6, 0);
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist,
                                     locked.correct_key));
}

TEST(SfllHd, BuildHdEqualsCountsExactly) {
  Netlist net("hd");
  std::vector<netlist::GateId> bits;
  for (int i = 0; i < 4; ++i) {
    bits.push_back(net.add_input("b" + std::to_string(i)));
  }
  net.mark_output(lock::build_hd_equals(net, bits, 2), "eq2");
  // eq2 is true exactly on the 6 four-bit patterns of weight 2.
  int ones = 0;
  for (int pattern = 0; pattern < 16; ++pattern) {
    std::vector<bool> in(4);
    int weight = 0;
    for (int i = 0; i < 4; ++i) {
      in[i] = ((pattern >> i) & 1) != 0;
      weight += in[i] ? 1 : 0;
    }
    const std::vector<bool> out = netlist::eval_once(net, in, {});
    EXPECT_EQ(out[0], weight == 2) << "pattern " << pattern;
    ones += out[0] ? 1 : 0;
  }
  EXPECT_EQ(ones, 6);
}

TEST(SfllHd, FallAttackRecoversKeyAndHammingDistance) {
  const Netlist original = netlist::make_circuit("c432", 2);
  const LockedCircuit locked = lock_sfll(original, 8, 1, 7);
  const attacks::Oracle oracle(original);
  attacks::RunResult run = attacks::run("fall", locked.netlist, oracle);
  const std::string detail = run.detail.str();
  EXPECT_EQ(runtime::json_bool_field(detail, "restore_identified"), true);
  EXPECT_EQ(runtime::json_int_field(detail, "protected_bits"), 8);
  EXPECT_GT(runtime::json_int_field(detail, "error_patterns").value_or(0), 0);
  // Pure removal is NOT enough: the stripped function still errs on the
  // h-shell around K*.
  EXPECT_GT(
      runtime::json_double_field(detail, "stripped_error_rate").value_or(0),
      0.0);
  ASSERT_EQ(run.result.status, attacks::AttackStatus::kSuccess);
  EXPECT_EQ(runtime::json_int_field(detail, "hd"), 1);
  EXPECT_EQ(run.result.key, locked.correct_key);
  EXPECT_TRUE(
      cnf::check_equivalence(original, {}, locked.netlist, run.result.key));
}

TEST(SfllHd, FallAttackRecoversKeyAtLargerDistance) {
  const Netlist original = netlist::make_circuit("c499", 2);
  const LockedCircuit locked = lock_sfll(original, 6, 2, 11);
  const attacks::Oracle oracle(original);
  attacks::RunResult run = attacks::run("fall", locked.netlist, oracle);
  ASSERT_EQ(run.result.status, attacks::AttackStatus::kSuccess);
  EXPECT_EQ(runtime::json_int_field(run.detail.str(), "hd"), 2);
  EXPECT_TRUE(
      cnf::check_equivalence(original, {}, locked.netlist, run.result.key));
}

TEST(SfllHd, FallBailsOnNonSfllLocks) {
  const Netlist original = netlist::make_circuit("c432", 2);
  const LockedCircuit locked = lock::lock_with(
      "rll", original, lock::make_options(5, {}, "keys=8"));
  const attacks::Oracle oracle(original);
  EXPECT_NE(attacks::run("fall", locked.netlist, oracle).result.status,
            attacks::AttackStatus::kSuccess);
}

TEST(SfllHd, FallThroughAttackRunReportsWhatItDid) {
  // The one mapping of FALL onto AttackResult: no DIP loop, so 0
  // iterations; oracle_queries is the oracle's own counter delta; the wall
  // time is measured; candidates and error patterns live in the detail.
  const Netlist original = netlist::make_circuit("c432", 2);
  const LockedCircuit locked = lock_sfll(original, 8, 1, 7);
  const attacks::Oracle oracle(original);
  const std::uint64_t queries_before = oracle.num_queries();
  attacks::RunResult run = attacks::run("fall", locked.netlist, oracle);
  EXPECT_EQ(run.attack, "fall");
  ASSERT_EQ(run.result.status, attacks::AttackStatus::kSuccess);
  EXPECT_EQ(run.result.key, locked.correct_key);
  EXPECT_EQ(run.result.iterations, 0u);
  EXPECT_EQ(run.result.oracle_queries,
            oracle.num_queries() - queries_before);
  EXPECT_GT(run.result.seconds, 0.0);
  const std::string detail = run.detail.str();
  EXPECT_TRUE(
      runtime::json_bool_field(detail, "restore_identified").value_or(false));
  EXPECT_EQ(runtime::json_int_field(detail, "protected_bits").value_or(0), 8);
  EXPECT_GT(runtime::json_int_field(detail, "error_patterns").value_or(0), 0);
  EXPECT_GT(runtime::json_int_field(detail, "candidates_tested").value_or(0),
            0);
  EXPECT_EQ(runtime::json_int_field(detail, "hd").value_or(-1), 1);
}

TEST(SfllHd, FallThroughAttackRunWithoutRestoreUnitSizesTheKey) {
  // No restore unit to strip: FALL fails, and the result still keeps
  // AttackResult's rule that the key is sized to the key width.
  const Netlist original = netlist::make_circuit("c432", 2);
  const LockedCircuit locked = lock::lock_with(
      "rll", original, lock::make_options(5, {}, "keys=8"));
  const attacks::Oracle oracle(original);
  attacks::RunResult run = attacks::run("fall", locked.netlist, oracle);
  EXPECT_EQ(run.result.status, attacks::AttackStatus::kIterationLimit);
  EXPECT_EQ(run.result.key.size(), locked.key_bits());
  EXPECT_EQ(run.result.iterations, 0u);
  const std::string detail = run.detail.str();
  EXPECT_FALSE(
      runtime::json_bool_field(detail, "restore_identified").value_or(true));
  EXPECT_EQ(runtime::json_int_field(detail, "candidates_tested").value_or(-1),
            0);
  EXPECT_FALSE(runtime::json_int_field(detail, "hd").has_value());
}

TEST(SfllHd, DeterministicInSeedAndValidatesParams) {
  const Netlist original = netlist::make_circuit("c432", 2);
  const LockedCircuit a = lock_sfll(original, 8, 2, 9);
  const LockedCircuit b = lock_sfll(original, 8, 2, 9);
  EXPECT_EQ(a.correct_key, b.correct_key);
  // hd > keys rejected both by validate() and by the lock itself.
  EXPECT_THROW(lock_sfll(original, 4, 5), std::invalid_argument);
}

}  // namespace
}  // namespace fl

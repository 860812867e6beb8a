// InterLock: logic folded into key-routed CLN blocks. The point of the
// scheme is that the removal attack — even with the correct permutation in
// hand — rips out real logic along with the routing fabric, so the bypass
// fails *functionally*, not just structurally.
#include <gtest/gtest.h>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "attacks/removal.h"
#include "attacks/sps.h"
#include "cnf/miter.h"
#include "core/verify.h"
#include "locking/interlock.h"
#include "locking/scheme.h"
#include "netlist/profiles.h"

namespace fl {
namespace {

using core::LockedCircuit;
using netlist::Netlist;

LockedCircuit lock_c432(const std::string& params, std::uint64_t seed = 5) {
  const Netlist original = netlist::make_circuit("c432", 2);
  return lock::lock_with("interlock", original,
                         lock::make_options(seed, {}, params));
}

TEST(InterLock, CorrectKeyUnlocksWithSatProof) {
  const Netlist original = netlist::make_circuit("c432", 2);
  const LockedCircuit locked = lock::lock_with(
      "interlock", original, lock::make_options(5, {}, "sizes=8"));
  EXPECT_FALSE(locked.netlist.is_cyclic());
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist,
                                     locked.correct_key));
  EXPECT_FALSE(locked.routing_blocks.empty());
  EXPECT_GT(locked.key_bits(), 0u);
}

TEST(InterLock, ReportCountsFoldedGatesAndKeys) {
  const Netlist original = netlist::make_circuit("c432", 2);
  lock::InterLockReport report;
  const LockedCircuit locked = lock::interlock_lock(
      original, lock::InterLockConfig::with_blocks({8}, 1.0, 0.5, 5),
      &report);
  EXPECT_EQ(report.num_blocks, 1);
  EXPECT_GT(report.num_folded_gates, 0);
  EXPECT_EQ(static_cast<std::size_t>(report.key_bits), locked.key_bits());
}

TEST(InterLock, RemovalAttackFailsFunctionally) {
  const Netlist original = netlist::make_circuit("c432", 2);
  const LockedCircuit locked = lock::lock_with(
      "interlock", original, lock::make_options(5, {}, "sizes=8"));
  const attacks::RemovalResult removal =
      attacks::removal_attack(locked, original);
  EXPECT_GT(removal.blocks_bypassed, 0);
  // Folded logic went with the fabric: the bypassed netlist mis-computes
  // even with all remaining keys set correctly.
  EXPECT_FALSE(removal.exact);
  EXPECT_GT(removal.error_rate, 0.01);
}

TEST(InterLock, AblationWithoutFoldingOrNegationIsRemovable) {
  // fold=0 + negate=0 degrades InterLock to a pure routing lock — exactly
  // the configuration the removal attack recovers. This pins down *why*
  // the scheme resists removal (the folding, not the fabric).
  const Netlist original = netlist::make_circuit("c432", 2);
  const LockedCircuit locked = lock::lock_with(
      "interlock", original,
      lock::make_options(5, {}, "sizes=8,fold=0,negate=0"));
  const attacks::RemovalResult removal =
      attacks::removal_attack(locked, original);
  EXPECT_TRUE(removal.exact);
  EXPECT_EQ(removal.error_rate, 0.0);
}

TEST(InterLock, SpsFindsNoSkewFoothold) {
  const Netlist original = netlist::make_circuit("c432", 2);
  const LockedCircuit locked = lock::lock_with(
      "interlock", original, lock::make_options(5, {}, "sizes=8"));
  const attacks::SpsReport sps = attacks::sps_attack(locked.netlist);
  // Routing MUX nets stay near p = 0.5 — nothing like a point function's
  // ~always-0 flip signal.
  EXPECT_LT(sps.mean_skew, 0.9);
}

TEST(InterLock, SatAttackRecoversAWorkingKey) {
  const Netlist original = netlist::make_circuit("c432", 2);
  const LockedCircuit locked = lock::lock_with(
      "interlock", original, lock::make_options(3, {}, "sizes=8"));
  const attacks::Oracle oracle(original);
  attacks::AttackOptions options;
  options.timeout_s = 120.0;
  const attacks::AttackResult result =
      attacks::run("sat", locked.netlist, oracle, options).result;
  ASSERT_EQ(result.status, attacks::AttackStatus::kSuccess);
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist, result.key));
}

TEST(InterLock, DeterministicInSeed) {
  const LockedCircuit a = lock_c432("sizes=8", 11);
  const LockedCircuit b = lock_c432("sizes=8", 11);
  EXPECT_EQ(a.correct_key, b.correct_key);
  EXPECT_EQ(a.netlist.num_gates(), b.netlist.num_gates());
  const LockedCircuit c = lock_c432("sizes=8", 12);
  EXPECT_TRUE(c.correct_key != a.correct_key ||
              c.netlist.num_gates() != a.netlist.num_gates());
}

TEST(InterLock, MultiBlockConfiguration) {
  const Netlist original = netlist::make_circuit("c880", 2);
  const LockedCircuit locked = lock::lock_with(
      "interlock", original, lock::make_options(9, {}, "sizes=8+8"));
  EXPECT_EQ(locked.routing_blocks.size(), 2u);
  EXPECT_EQ(core::check_key(original, locked.netlist, locked.correct_key),
            core::KeyCheck::kProved);
}

}  // namespace
}  // namespace fl

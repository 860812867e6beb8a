// Removal attack: succeeds against routing-only locking, fails against
// Full-Lock's twisted logic (§4.2.2).
#include <gtest/gtest.h>

#include "attacks/oracle.h"
#include "attacks/removal.h"
#include "core/full_lock.h"
#include "locking/crosslock.h"
#include "netlist/profiles.h"

namespace fl::attacks {
namespace {

using core::CycleMode;
using core::LockedCircuit;
using netlist::Netlist;

TEST(Removal, RecoversCrossLockExactly) {
  // Cross-Lock is pure interconnect: an adversary who knows the routing
  // rebuilds the circuit perfectly.
  const Netlist original = netlist::make_circuit("c880", 121);
  lock::CrossLockConfig config;
  config.num_sources = 8;
  config.num_destinations = 12;
  const LockedCircuit locked = lock::crosslock_lock(original, config);
  const RemovalResult result = removal_attack(locked, original);
  EXPECT_GT(result.blocks_bypassed, 0);
  EXPECT_EQ(result.error_rate, 0.0);
  EXPECT_TRUE(result.exact);
}

TEST(Removal, FailsOnFullLockWithNegatedDrivers) {
  // Force negation of every negatable driver: bypassing the CLN (and its
  // inverters) leaves the negations uncompensated.
  const Netlist original = netlist::make_circuit("c880", 122);
  core::FullLockConfig config = core::FullLockConfig::with_plrs(
      {16}, core::ClnTopology::kBanyanNonBlocking, CycleMode::kAvoid,
      /*twist_luts=*/true, /*negate_probability=*/1.0);
  const LockedCircuit locked = core::full_lock(original, config);
  const RemovalResult result = removal_attack(locked, original);
  EXPECT_FALSE(result.exact);
  EXPECT_GT(result.error_rate, 0.01);
}

TEST(Removal, AblationNoNegationNoLuts) {
  // Ablation: Full-Lock *without* twisting (no negation, no LUTs) is just a
  // routing lock — removal recovers it, demonstrating why §3.2 matters.
  const Netlist original = netlist::make_circuit("c880", 123);
  core::FullLockConfig config = core::FullLockConfig::with_plrs(
      {8}, core::ClnTopology::kBanyanNonBlocking, CycleMode::kAvoid,
      /*twist_luts=*/false, /*negate_probability=*/0.0);
  const LockedCircuit locked = core::full_lock(original, config);
  const RemovalResult result = removal_attack(locked, original);
  EXPECT_TRUE(result.exact);
}

TEST(Removal, NoBlocksIsHarmlessNoop) {
  const Netlist original = netlist::make_circuit("c432", 124);
  LockedCircuit unlocked;
  unlocked.netlist = original;
  unlocked.scheme = "none";
  const RemovalResult result = removal_attack(unlocked, original);
  EXPECT_EQ(result.blocks_bypassed, 0);
  EXPECT_TRUE(result.exact);
}

}  // namespace
}  // namespace fl::attacks

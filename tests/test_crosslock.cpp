// Cross-Lock-specific claims: crossbar geometry and corruption magnitude.
// Generic lock invariants run for every registry scheme in
// test_lock_properties.cpp.
#include <gtest/gtest.h>

#include "cnf/miter.h"
#include "core/verify.h"
#include "locking/crosslock.h"
#include "netlist/profiles.h"

namespace fl::lock {
namespace {

using netlist::Netlist;

TEST(CrossLock, KeyBitsPerDestination) {
  const Netlist original = netlist::make_circuit("c1908", 82);
  CrossLockConfig config;
  config.num_sources = 16;  // 4 select bits
  config.num_destinations = 9;
  const core::LockedCircuit locked = crosslock_lock(original, config);
  EXPECT_EQ(locked.key_bits() % 4, 0u);
  EXPECT_LE(locked.key_bits() / 4, 9u);
  EXPECT_EQ(locked.routing_blocks.size(), locked.key_bits() / 4);
}

TEST(CrossLock, WrongRoutingCorruptsBroadly) {
  // Unlike point functions, mis-routed wires corrupt a macroscopic slice of
  // the input space — the corruption *magnitude* is the scheme's claim.
  const Netlist original = netlist::make_circuit("c880", 83);
  CrossLockConfig config;
  config.num_sources = 8;
  config.num_destinations = 16;
  const core::LockedCircuit locked = crosslock_lock(original, config);
  const core::CorruptionStats stats =
      core::output_corruption(original, locked, 16, 4, 2);
  EXPECT_GT(stats.mean_error_rate, 0.01);
}

TEST(CrossLock, Paper32x36Shape) {
  const Netlist original = netlist::make_circuit("c5315", 84);
  CrossLockConfig config;  // defaults: 32 x 36
  const core::LockedCircuit locked = crosslock_lock(original, config);
  EXPECT_EQ(core::check_key(original, locked.netlist, locked.correct_key),
            core::KeyCheck::kProved);
  // 5 select bits per destination.
  EXPECT_EQ(locked.key_bits() % 5, 0u);
}

TEST(CrossLock, NonPowerOfTwoSources) {
  const Netlist original = netlist::make_circuit("c880", 85);
  CrossLockConfig config;
  config.num_sources = 6;
  config.num_destinations = 8;
  const core::LockedCircuit locked = crosslock_lock(original, config);
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist,
                                     locked.correct_key));
}

TEST(CrossLock, DefaultsLockC432AtEveryLockSeed) {
  // c432 is narrow: one greedy pass often finds fewer than 32 antichain
  // wires, so the pick reshuffles and retries as Full-Lock's does.
  const Netlist original = netlist::make_circuit("c432", 1);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    CrossLockConfig config;  // defaults: 32 x 36
    config.seed = seed;
    const core::LockedCircuit locked = crosslock_lock(original, config);
    EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist,
                                       locked.correct_key))
        << "lock seed " << seed;
  }
}

TEST(CrossLock, TinyCircuitThrows) {
  const Netlist c17 = netlist::make_c17();
  CrossLockConfig config;
  config.num_sources = 64;
  EXPECT_THROW(crosslock_lock(c17, config), std::invalid_argument);
}

}  // namespace
}  // namespace fl::lock

// Brute-force keyspace sweep.
#include <gtest/gtest.h>

#include "attacks/brute_force.h"
#include "cnf/miter.h"
#include "core/verify.h"
#include "locking/rll.h"
#include "netlist/profiles.h"

namespace fl::attacks {
namespace {

using netlist::Netlist;

TEST(BruteForce, FindsSmallRllKey) {
  const Netlist original = netlist::make_circuit("c432", 141);
  lock::RllConfig config;
  config.num_keys = 8;
  const core::LockedCircuit locked = lock::rll_lock(original, config);
  const Oracle oracle(original);
  const BruteForceResult result = brute_force_attack(locked, oracle);
  ASSERT_TRUE(result.found);
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist, result.key));
  EXPECT_LE(result.keys_tried, 256u);
}

TEST(BruteForce, KeysTriedGrowsWithKeyPosition) {
  // The correct key's little-endian integer value bounds the sweep length.
  const Netlist original = netlist::make_circuit("c432", 142);
  lock::RllConfig config;
  config.num_keys = 6;
  const core::LockedCircuit locked = lock::rll_lock(original, config);
  std::uint64_t key_value = 0;
  for (std::size_t i = 0; i < locked.correct_key.size(); ++i) {
    key_value |= static_cast<std::uint64_t>(locked.correct_key[i]) << i;
  }
  const Oracle oracle(original);
  const BruteForceResult result = brute_force_attack(locked, oracle);
  ASSERT_TRUE(result.found);
  EXPECT_LE(result.keys_tried, key_value + 1);
}

TEST(BruteForce, RefusesLargeKeySpaces) {
  const Netlist original = netlist::make_circuit("c880", 143);
  lock::RllConfig config;
  config.num_keys = 32;
  const core::LockedCircuit locked = lock::rll_lock(original, config);
  const Oracle oracle(original);
  EXPECT_THROW(brute_force_attack(locked, oracle), std::invalid_argument);
}

}  // namespace
}  // namespace fl::attacks

// Key-sensitization attack: breaks RLL, blunted by Full-Lock.
#include <gtest/gtest.h>

#include "attacks/oracle.h"
#include "attacks/sensitization.h"
#include "core/full_lock.h"
#include "core/verify.h"
#include "locking/rll.h"
#include "netlist/profiles.h"

namespace fl::attacks {
namespace {

using core::LockedCircuit;
using netlist::Netlist;

TEST(Sensitization, RecoversMostRllKeysCorrectly) {
  const Netlist original = netlist::make_circuit("c880", 161);
  lock::RllConfig config;
  config.num_keys = 24;
  const LockedCircuit locked = lock::rll_lock(original, config);
  const Oracle oracle(original);
  const SensitizationResult result =
      sensitization_attack(locked.netlist, oracle);
  // RLL leaves most key gates individually observable.
  EXPECT_GE(result.num_resolved, 12);
  // And every recovered bit must be RIGHT (goldenness is a proof).
  for (std::size_t i = 0; i < result.resolved.size(); ++i) {
    if (result.resolved[i] < 0) continue;
    EXPECT_EQ(result.resolved[i] == 1, locked.correct_key[i] == true)
        << "key bit " << i;
  }
  // Oracle traffic is ~1 query per resolved bit, far below 2^k.
  EXPECT_LE(result.oracle_queries,
            static_cast<std::uint64_t>(result.num_resolved));
}

TEST(Sensitization, FullLockLeavesKeysEntangled) {
  const Netlist original = netlist::make_circuit("c880", 162);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({8}));
  const Oracle oracle(original);
  SensitizationOptions options;
  options.attempts_per_key = 3;
  options.timeout_s = 60.0;
  const SensitizationResult result =
      sensitization_attack(locked.netlist, oracle, options);
  // The CLN entangles keys: only a negligible fraction can be golden.
  EXPECT_LT(result.num_resolved,
            static_cast<int>(locked.key_bits()) / 8);
  // Whatever *is* resolved must still be correct (soundness).
  for (std::size_t i = 0; i < result.resolved.size(); ++i) {
    if (result.resolved[i] < 0) continue;
    EXPECT_EQ(result.resolved[i] == 1, locked.correct_key[i] == true);
  }
}

TEST(Sensitization, KeylessCircuit) {
  const Netlist c17 = netlist::make_c17();
  const Oracle oracle(c17);
  const SensitizationResult result = sensitization_attack(c17, oracle);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.num_resolved, 0);
  EXPECT_EQ(result.oracle_queries, 0u);
}

}  // namespace
}  // namespace fl::attacks

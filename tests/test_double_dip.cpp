// DoubleDIP: 2-DIP pruning attack.
#include <gtest/gtest.h>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "cnf/miter.h"
#include "core/full_lock.h"
#include "core/verify.h"
#include "locking/rll.h"
#include "locking/sarlock.h"
#include "netlist/profiles.h"
#include "runtime/jsonl.h"

namespace fl::attacks {
namespace {

using core::LockedCircuit;
using netlist::Netlist;

TEST(DoubleDip, BreaksRll) {
  const Netlist original = netlist::make_circuit("c432", 151);
  lock::RllConfig config;
  config.num_keys = 16;
  const LockedCircuit locked = lock::rll_lock(original, config);
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 60.0;
  const AttackResult result =
      attacks::run("double-dip", locked.netlist, oracle, options).result;
  ASSERT_EQ(result.status, AttackStatus::kSuccess);
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist, result.key));
}

TEST(DoubleDip, NoTwoDipExistsForPureSarlock) {
  // A pure point function errs on exactly one input per wrong key, so two
  // distinct wrong keys can never agree on a wrong output: the 2-DIP
  // condition is UNSAT immediately and the attack must fall back cleanly.
  const Netlist original = netlist::make_circuit("c432", 152);
  lock::SarLockConfig config;
  config.num_keys = 6;
  const LockedCircuit locked = lock::sarlock_lock(original, config);
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 120.0;
  RunResult run = attacks::run("double-dip", locked.netlist, oracle, options);
  const AttackResult& result = run.result;
  ASSERT_EQ(result.status, AttackStatus::kSuccess);
  EXPECT_EQ(result.iterations, 0u);  // no 2-DIP on a pure point function
  EXPECT_GT(runtime::json_int_field(run.detail.str(), "fallback_iterations"),
            0);
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist, result.key));
}

TEST(DoubleDip, UsesTwoDipsOnBroadlyCorruptingSchemes) {
  // RLL wrong keys corrupt broadly, so distinct agreeing-wrong pairs exist
  // and real 2-DIP queries fire.
  const Netlist original = netlist::make_circuit("c499", 154);
  lock::RllConfig config;
  config.num_keys = 16;
  const LockedCircuit locked = lock::rll_lock(original, config);
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 120.0;
  const AttackResult result =
      attacks::run("double-dip", locked.netlist, oracle, options).result;
  ASSERT_EQ(result.status, AttackStatus::kSuccess);
  EXPECT_GT(result.iterations, 0u);
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist, result.key));
}

TEST(DoubleDip, FullLockStillResists) {
  const Netlist original = netlist::make_circuit("c432", 153);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({16}));
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 1.0;
  const AttackResult result =
      attacks::run("double-dip", locked.netlist, oracle, options).result;
  // Either times out (expected at this budget) or, if it finishes, the key
  // must be right.
  if (result.status == AttackStatus::kSuccess) {
    EXPECT_EQ(core::check_key(original, locked.netlist, result.key),
              core::KeyCheck::kProved);
  } else {
    EXPECT_EQ(result.status, AttackStatus::kTimeout);
  }
  // Truncated or not, the key is sized to the key width for consumers that
  // index it unconditionally.
  EXPECT_EQ(result.key.size(), locked.netlist.num_keys());
}

TEST(DoubleDip, KeylessCircuitTrivial) {
  const Netlist c17 = netlist::make_c17();
  const Oracle oracle(c17);
  const AttackResult result = attacks::run("double-dip", c17, oracle).result;
  EXPECT_EQ(result.status, AttackStatus::kSuccess);
}

}  // namespace
}  // namespace fl::attacks

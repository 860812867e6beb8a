// SARLock-specific claims: the exact point-function shape. Generic lock
// invariants run for every registry scheme in test_lock_properties.cpp.
#include <gtest/gtest.h>

#include "cnf/miter.h"
#include "core/verify.h"
#include "locking/sarlock.h"
#include "netlist/profiles.h"
#include "netlist/simulator.h"

namespace fl::lock {
namespace {

using netlist::Netlist;

TEST(SarLock, WrongKeyErrsOnExactlyItsOwnPattern) {
  // With k = num_inputs the flip fires on exactly one input pattern.
  Netlist original;
  std::vector<netlist::GateId> ins;
  for (int i = 0; i < 6; ++i) ins.push_back(original.add_input("x"));
  original.mark_output(
      original.add_gate(netlist::GateType::kXor, {ins[0], ins[1]}), "y");
  SarLockConfig config;
  config.num_keys = 6;
  config.seed = 3;
  const core::LockedCircuit locked = sarlock_lock(original, config);

  std::vector<bool> wrong = locked.correct_key;
  wrong[0] = !wrong[0];
  int mismatches = 0;
  int mismatch_pattern = -1;
  for (int x = 0; x < 64; ++x) {
    std::vector<bool> in(6);
    for (int i = 0; i < 6; ++i) in[i] = ((x >> i) & 1) != 0;
    const auto want = netlist::eval_once(original, in, {});
    const auto got = netlist::eval_once(locked.netlist, in, wrong);
    if (want != got) {
      ++mismatches;
      mismatch_pattern = x;
    }
  }
  EXPECT_EQ(mismatches, 1);
  // The erring pattern is the wrong key itself (X == K fires the flip).
  int wrong_as_int = 0;
  for (int i = 0; i < 6; ++i) wrong_as_int |= (wrong[i] ? 1 : 0) << i;
  EXPECT_EQ(mismatch_pattern, wrong_as_int);
}

TEST(SarLock, KeyWidthClampedToInputs) {
  const Netlist c17 = netlist::make_c17();  // 5 inputs
  SarLockConfig config;
  config.num_keys = 64;
  const core::LockedCircuit locked = sarlock_lock(c17, config);
  EXPECT_EQ(locked.key_bits(), 5u);
  EXPECT_TRUE(cnf::check_equivalence(c17, {}, locked.netlist,
                                     locked.correct_key));
}

}  // namespace
}  // namespace fl::lock

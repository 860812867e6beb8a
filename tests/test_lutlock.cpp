// LUT-Lock-specific claims: site selection and corruption magnitude.
// Generic lock invariants run for every registry scheme in
// test_lock_properties.cpp.
#include <gtest/gtest.h>

#include "cnf/miter.h"
#include "core/verify.h"
#include "locking/lutlock.h"
#include "netlist/profiles.h"

namespace fl::lock {
namespace {

using netlist::Netlist;

TEST(LutLock, PreferSmallPicksCheapGates) {
  const Netlist original = netlist::make_circuit("c880", 73);
  LutLockConfig small;
  small.num_luts = 10;
  small.prefer_small = true;
  LutLockConfig any;
  any.num_luts = 10;
  any.prefer_small = false;
  const auto k_small = lutlock_lock(original, small).key_bits();
  const auto k_any = lutlock_lock(original, any).key_bits();
  EXPECT_LE(k_small, k_any);
}

TEST(LutLock, OnlyLiveGatesAreKeyed) {
  // One live gate, one dead gate. The single LUT must land on the live one:
  // a key on dead logic provably never affects the function.
  Netlist original;
  const auto a = original.add_input("a");
  const auto b = original.add_input("b");
  original.mark_output(
      original.add_gate(netlist::GateType::kAnd, {a, b}), "y");
  original.add_gate(netlist::GateType::kOr, {a, b});  // dead
  LutLockConfig config;
  config.num_luts = 1;
  const core::LockedCircuit locked = lutlock_lock(original, config);
  std::vector<bool> wrong = locked.correct_key;
  wrong.flip();
  EXPECT_FALSE(cnf::check_equivalence(original, {}, locked.netlist, wrong));
}

TEST(LutLock, TooManyLutsThrows) {
  const Netlist c17 = netlist::make_c17();
  LutLockConfig config;
  config.num_luts = 100;
  EXPECT_THROW(lutlock_lock(c17, config), std::invalid_argument);
}

TEST(LutLock, HighCorruption) {
  // Unlike point functions, LUT-Lock corrupts broadly (each wrong table bit
  // flips a whole input subspace).
  const Netlist original = netlist::make_circuit("c432", 74);
  LutLockConfig config;
  config.num_luts = 16;
  const core::LockedCircuit locked = lutlock_lock(original, config);
  const core::CorruptionStats stats =
      core::output_corruption(original, locked, 16, 4, 3);
  EXPECT_GT(stats.mean_error_rate, 0.01);
}

}  // namespace
}  // namespace fl::lock

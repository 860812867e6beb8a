// Anti-SAT-specific claims: the two-block K1 == K2 structure. Generic lock
// invariants run for every registry scheme in test_lock_properties.cpp.
#include <gtest/gtest.h>

#include "cnf/miter.h"
#include "core/verify.h"
#include "locking/antisat.h"
#include "netlist/profiles.h"
#include "netlist/simulator.h"

namespace fl::lock {
namespace {

using netlist::Netlist;

TEST(AntiSat, AnyEqualKeyPairUnlocks) {
  const Netlist original = netlist::make_circuit("c432", 61);
  AntiSatConfig config;
  config.block_inputs = 6;
  const core::LockedCircuit locked = antisat_lock(original, config);
  ASSERT_EQ(locked.key_bits(), 12u);
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist,
                                     locked.correct_key));
  // Property: *any* K1 == K2 unlocks, not just the stored one.
  std::vector<bool> alt(12);
  for (int i = 0; i < 6; ++i) {
    alt[i] = (i % 2) == 0;
    alt[6 + i] = (i % 2) == 0;
  }
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist, alt));
}

TEST(AntiSat, UnequalKeysErrOnOnePattern) {
  Netlist original;
  std::vector<netlist::GateId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(original.add_input("x"));
  original.mark_output(
      original.add_gate(netlist::GateType::kOr, {ins[0], ins[4]}), "y");
  AntiSatConfig config;
  config.block_inputs = 5;
  config.seed = 2;
  const core::LockedCircuit locked = antisat_lock(original, config);
  std::vector<bool> wrong = locked.correct_key;
  wrong[0] = !wrong[0];  // K1 != K2 now
  int mismatches = 0;
  for (int x = 0; x < 32; ++x) {
    std::vector<bool> in(5);
    for (int i = 0; i < 5; ++i) in[i] = ((x >> i) & 1) != 0;
    if (netlist::eval_once(original, in, {}) !=
        netlist::eval_once(locked.netlist, in, wrong)) {
      ++mismatches;
    }
  }
  // Y fires exactly where X = ~K1 (and g(X^K2) != 1): exactly one pattern.
  EXPECT_EQ(mismatches, 1);
}

TEST(AntiSat, BlockWidthClamped) {
  const Netlist c17 = netlist::make_c17();
  AntiSatConfig config;
  config.block_inputs = 99;
  const core::LockedCircuit locked = antisat_lock(c17, config);
  EXPECT_EQ(locked.key_bits(), 10u);  // 2 x 5 inputs
}

}  // namespace
}  // namespace fl::lock

// Verification & corruption metrics.
#include <gtest/gtest.h>

#include <bit>
#include <random>

#include "cnf/miter.h"
#include "core/full_lock.h"
#include "core/verify.h"
#include "locking/rll.h"
#include "locking/sarlock.h"
#include "netlist/profiles.h"
#include "netlist/simulator.h"

namespace fl::core {
namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::Word;

TEST(VerifyUnlocks, AcceptsIdentity) {
  const Netlist c17 = netlist::make_c17();
  EXPECT_TRUE(verify_unlocks(c17, c17, {}, 8, 1));
}

TEST(VerifyUnlocks, RejectsWrongKey) {
  const Netlist original = netlist::make_circuit("c432", 3);
  const LockedCircuit locked =
      full_lock(original, FullLockConfig::with_plrs({8}));
  // Inverting the whole key scrambles routing, inverters and LUT tables;
  // use the equivalence proof so the verdict is exact.
  std::vector<bool> wrong = locked.correct_key;
  wrong.flip();
  EXPECT_FALSE(cnf::check_equivalence(original, {}, locked.netlist, wrong));
  // And statistically: random wrong keys corrupt at least sometimes.
  const CorruptionStats stats = output_corruption(original, locked, 16, 4, 9);
  EXPECT_GT(stats.mean_error_rate, 0.0);
}

TEST(VerifyUnlocks, InterfaceMismatchIsFalse) {
  const Netlist c17 = netlist::make_c17();
  const Netlist other = netlist::make_circuit("i4", 1);
  EXPECT_FALSE(verify_unlocks(c17, other, {}, 1, 1));
}

TEST(ErrorRate, ZeroForCorrectKey) {
  const Netlist original = netlist::make_circuit("c499", 4);
  const LockedCircuit locked =
      full_lock(original, FullLockConfig::with_plrs({8}));
  EXPECT_EQ(error_rate(original, locked.netlist, locked.correct_key, 8, 2),
            0.0);
}

TEST(ErrorRate, HalfForInvertedOutput) {
  // locked = original with one output inverted -> that output is always
  // wrong; with 2 outputs the bit error rate is 0.5.
  const Netlist c17 = netlist::make_c17();
  Netlist broken = c17;
  const GateId inv =
      broken.add_gate(GateType::kNot, {broken.outputs()[0].gate});
  broken.set_output_gate(0, inv);
  const double e = error_rate(c17, broken, {}, 16, 3);
  EXPECT_NEAR(e, 0.5, 1e-9);
}

// (#wrong output bits, #output bits) of `key` computed word by word: the
// round-major pattern stream error_rate and verify_unlocks draw, each round
// run through the scalar relaxation kernel. A lane that does not settle is
// wrong on every output.
std::pair<std::uint64_t, std::uint64_t> reference_diff(
    const Netlist& original, const Netlist& locked,
    const std::vector<bool>& key, int rounds, std::uint64_t seed,
    std::uint64_t* unsettled) {
  std::vector<Word> kw(key.size());
  for (std::size_t i = 0; i < key.size(); ++i) kw[i] = key[i] ? ~Word{0} : 0;
  std::mt19937_64 rng(seed);
  std::uint64_t diff = 0, total = 0;
  for (int r = 0; r < rounds; ++r) {
    std::vector<Word> in(original.num_inputs());
    for (Word& w : in) w = rng();
    const netlist::CyclicSimResult gold =
        netlist::simulate_cyclic(original, in, {});
    const netlist::CyclicSimResult got =
        netlist::simulate_cyclic(locked, in, kw);
    *unsettled += std::popcount(~got.converged);
    for (std::size_t o = 0; o < gold.outputs.size(); ++o) {
      diff += std::popcount((gold.outputs[o] ^ got.outputs[o]) |
                            ~got.converged);
      total += 64;
    }
  }
  return {diff, total};
}

TEST(ErrorRate, CyclicLockMatchesWordByWordRelaxation) {
  // The correct key and every one-bit flip of it on a cyclic Full-Lock:
  // error_rate and verify_unlocks agree with the word-by-word reference.
  const Netlist original = netlist::make_circuit("c432", 101);
  FullLockConfig config = FullLockConfig::with_plrs(
      {4}, ClnTopology::kBanyanNonBlocking, CycleMode::kForce);
  config.seed = 2;
  const LockedCircuit locked = full_lock(original, config);
  ASSERT_TRUE(locked.netlist.is_cyclic());
  std::vector<std::vector<bool>> keys = {locked.correct_key};
  for (std::size_t b = 0; b < locked.correct_key.size(); ++b) {
    keys.push_back(locked.correct_key);
    keys.back()[b] = !keys.back()[b];
  }
  int wrong_keys = 0;
  std::uint64_t unsettled = 0;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const auto [diff, total] =
        reference_diff(original, locked.netlist, keys[k], 8, 3, &unsettled);
    EXPECT_EQ(error_rate(original, locked.netlist, keys[k], 8, 3),
              static_cast<double>(diff) / static_cast<double>(total))
        << "key " << k;
    EXPECT_EQ(verify_unlocks(original, locked.netlist, keys[k], 8, 3),
              diff == 0)
        << "key " << k;
    if (k == 0) {
      EXPECT_EQ(diff, 0u);
    } else if (diff != 0) {
      ++wrong_keys;
    }
  }
  // Some flips corrupt outputs, and some leave lanes oscillating.
  EXPECT_GT(wrong_keys, 0);
  EXPECT_GT(unsettled, 0u);
}

TEST(Corruption, FullLockBeatsSarlock) {
  // The paper's §2 property (2): DPLL-hard schemes corrupt heavily, point
  // functions barely.
  const Netlist original = netlist::make_circuit("c880", 5);
  const LockedCircuit fulllock =
      full_lock(original, FullLockConfig::with_plrs({16}));
  lock::SarLockConfig sar;
  sar.num_keys = 12;
  const LockedCircuit sarlock = lock::sarlock_lock(original, sar);

  const CorruptionStats cf = output_corruption(original, fulllock, 16, 4, 6);
  const CorruptionStats cs = output_corruption(original, sarlock, 16, 4, 6);
  EXPECT_GT(cf.mean_error_rate, 10 * std::max(cs.mean_error_rate, 1e-6));
}

TEST(Corruption, StatsRangesSane) {
  const Netlist original = netlist::make_circuit("c432", 6);
  lock::RllConfig rll;
  rll.num_keys = 16;
  const LockedCircuit locked = lock::rll_lock(original, rll);
  const CorruptionStats stats = output_corruption(original, locked, 20, 4, 7);
  EXPECT_GT(stats.keys_sampled, 0);
  EXPECT_LE(stats.min_error_rate, stats.mean_error_rate);
  EXPECT_GE(stats.max_error_rate, stats.mean_error_rate);
  EXPECT_LE(stats.max_error_rate, 1.0);
}

}  // namespace
}  // namespace fl::core

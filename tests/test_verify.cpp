// Verification & corruption metrics.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <random>
#include <stdexcept>
#include <string>

#include "cnf/miter.h"
#include "core/full_lock.h"
#include "core/verify.h"
#include "locking/rll.h"
#include "locking/sarlock.h"
#include "locking/scheme.h"
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

// The lock-matrix legs (.github/workflows/lock-matrix.yml): c432 circuit
// seed 1, lock seed 2.
LockedCircuit matrix_lock(const Netlist& c432, const std::string& scheme,
                          const std::string& params) {
  return lock::lock_with(scheme, c432, lock::make_options(2, {}, params));
}

TEST(KeyCheck, ProvesEveryLockMatrixCorrectKey) {
  const Netlist original = netlist::make_circuit("c432", 1);
  const std::pair<const char*, const char*> legs[] = {
      {"rll", "keys=16"},
      {"lut-lock", "luts=6"},
      {"sarlock", "keys=8"},
      {"antisat", "inputs=6"},
      {"cross-lock", "sources=8,dests=12"},
      {"cross-lock", "sources=32"},
      {"full-lock", "sizes=8"},
      {"interlock", "sizes=8"},
      {"full-lock", "sizes=4,cycle=allow"},
      {"sfll-hd", "keys=8,hd=1"},
  };
  for (const auto& [scheme, params] : legs) {
    const LockedCircuit locked = matrix_lock(original, scheme, params);
    EXPECT_EQ(check_key(original, locked.netlist, locked.correct_key),
              KeyCheck::kProved)
        << scheme << " " << params;
  }
}

TEST(KeyCheck, RefutesOneBitFlipsThatPassTheSample) {
  // Each of these flips matches the original on all 16 x 64 patterns of
  // verify_unlocks(..., 16, 1), the check the CLI's lock and attack used to
  // fall back on, yet the proof finds an input that tells them apart.
  const Netlist original = netlist::make_circuit("c432", 1);
  const std::map<std::pair<std::string, std::string>, std::vector<int>>
      flips = {
          {{"full-lock", "sizes=8"}, {16, 44, 164, 165, 168, 182, 190}},
          {{"cross-lock", "sources=8,dests=12"}, {16}},
          {{"interlock", "sizes=8"}, {16, 54, 55, 58, 76, 84}},
          {{"full-lock", "sizes=4,cycle=allow"}, {16}},
      };
  for (const auto& [lock, bits] : flips) {
    const LockedCircuit locked = matrix_lock(original, lock.first, lock.second);
    for (const int bit : bits) {
      std::vector<bool> key = locked.correct_key;
      key[bit] = !key[bit];
      EXPECT_TRUE(verify_unlocks(original, locked.netlist, key, 16, 1))
          << lock.first << " " << lock.second << " bit " << bit;
      EXPECT_EQ(check_key(original, locked.netlist, key), KeyCheck::kRefuted)
          << lock.first << " " << lock.second << " bit " << bit;
    }
  }
}

TEST(KeyCheck, RefutesByTheSampleAKeyThatKeepsACycle) {
  // Bit 4 of the cyclic lock-matrix Full-Lock leaves a routing cycle
  // standing: the proof cannot run, and the sample sees the difference.
  const Netlist original = netlist::make_circuit("c432", 1);
  const LockedCircuit locked =
      matrix_lock(original, "full-lock", "sizes=4,cycle=allow");
  ASSERT_TRUE(locked.netlist.is_cyclic());
  std::vector<bool> key = locked.correct_key;
  key[4] = !key[4];
  EXPECT_THROW(cnf::check_equivalence(original, {}, locked.netlist, key),
               std::invalid_argument);
  EXPECT_EQ(check_key(original, locked.netlist, key), KeyCheck::kRefuted);
}

TEST(KeyCheck, SimulatesAKeyThatKeepsACycleYetUnlocks) {
  // y = OR(a, m), m = MUX(k, a, c), c = AND(a, m). k = 0 routes a to m and
  // cuts the loop. k = 1 closes m -> c -> m, but y = a still: a = 1 forces
  // y, and a = 0 forces c = m = 0.
  Netlist original;
  const GateId a0 = original.add_input("a");
  original.mark_output(original.add_gate(GateType::kBuf, {a0}), "y");
  Netlist locked;
  const GateId a = locked.add_input("a");
  const GateId k = locked.add_key("k");
  const GateId m = locked.add_gate(GateType::kMux, {k, a, a});
  const GateId c = locked.add_gate(GateType::kAnd, {a, m});
  locked.set_fanin(m, std::vector<GateId>{k, a, c});
  locked.mark_output(locked.add_gate(GateType::kOr, {a, m}), "y");
  ASSERT_TRUE(locked.is_cyclic());
  EXPECT_EQ(check_key(original, locked, {false}), KeyCheck::kProved);
  EXPECT_THROW(cnf::check_equivalence(original, {}, locked, {true}),
               std::invalid_argument);
  EXPECT_EQ(check_key(original, locked, {true}), KeyCheck::kSimulated);
  EXPECT_STREQ(to_string(KeyCheck::kSimulated), "simulated");
}

TEST(KeyCheck, RefutesAMismatchedInterfaceOrKeyWidthWithoutThrowing) {
  const Netlist original = netlist::make_circuit("c432", 1);
  const LockedCircuit locked = matrix_lock(original, "rll", "keys=16");
  std::vector<bool> short_key = locked.correct_key;
  short_key.pop_back();
  EXPECT_EQ(check_key(original, locked.netlist, short_key), KeyCheck::kRefuted);
  EXPECT_EQ(check_key(original, locked.netlist, {}), KeyCheck::kRefuted);
  const Netlist c17 = netlist::make_c17();
  EXPECT_EQ(check_key(c17, locked.netlist, locked.correct_key),
            KeyCheck::kRefuted);
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

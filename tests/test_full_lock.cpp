// Full-Lock end-to-end transform.
#include <gtest/gtest.h>

#include "cnf/miter.h"
#include "core/full_lock.h"
#include "core/verify.h"
#include "netlist/bench_io.h"
#include "netlist/profiles.h"

namespace fl::core {
namespace {

using netlist::Netlist;

TEST(FullLock, SinglePlrUnlocksWithCorrectKey) {
  const Netlist original = netlist::make_circuit("c432", 31);
  FullLockReport report;
  const LockedCircuit locked =
      full_lock(original, FullLockConfig::with_plrs({8}), &report);
  EXPECT_EQ(report.num_plrs, 1);
  EXPECT_EQ(locked.key_bits(), locked.netlist.num_keys());
  EXPECT_EQ(locked.scheme, "full-lock");
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist,
                                     locked.correct_key));
}

TEST(FullLock, MultiplePlrs) {
  const Netlist original = netlist::make_circuit("c1908", 32);
  FullLockReport report;
  const LockedCircuit locked =
      full_lock(original, FullLockConfig::with_plrs({8, 8, 4}), &report);
  EXPECT_EQ(report.num_plrs, 3);
  EXPECT_EQ(locked.routing_blocks.size(), 3u);
  EXPECT_EQ(check_key(original, locked.netlist, locked.correct_key),
            KeyCheck::kProved);
}

TEST(FullLock, Table5StyleConfig) {
  // The paper's c432 row: 2x16x16 + 1x8x8.
  const Netlist original = netlist::make_circuit("c432", 33);
  const LockedCircuit locked =
      full_lock(original, FullLockConfig::with_plrs({16, 16, 8}));
  EXPECT_EQ(check_key(original, locked.netlist, locked.correct_key),
            KeyCheck::kProved);
  // Key budget: at least the CLN keys of the three networks.
  ClnConfig c16;
  c16.n = 16;
  ClnConfig c8;
  c8.n = 8;
  EXPECT_GE(static_cast<int>(locked.key_bits()),
            2 * cln_num_keys(c16) + cln_num_keys(c8));
}

TEST(FullLock, CyclicInsertionCorrectKeyIsProved) {
  // The correct key cuts every routing cycle, so the proof runs on the
  // acyclic netlist the key specialises the lock to.
  const Netlist original = netlist::make_circuit("c880", 34);
  FullLockConfig config = FullLockConfig::with_plrs(
      {8}, ClnTopology::kBanyanNonBlocking, CycleMode::kForce);
  const LockedCircuit locked = full_lock(original, config);
  EXPECT_TRUE(locked.netlist.is_cyclic());
  EXPECT_EQ(check_key(original, locked.netlist, locked.correct_key),
            KeyCheck::kProved);
}

TEST(FullLock, DeterministicForFixedSeed) {
  const Netlist original = netlist::make_circuit("c499", 35);
  FullLockConfig config = FullLockConfig::with_plrs({8});
  config.seed = 99;
  const LockedCircuit a = full_lock(original, config);
  const LockedCircuit b = full_lock(original, config);
  EXPECT_EQ(a.correct_key, b.correct_key);
  EXPECT_EQ(a.netlist.num_gates(), b.netlist.num_gates());
}

TEST(FullLock, DifferentSeedsGiveDifferentKeys) {
  const Netlist original = netlist::make_circuit("c499", 35);
  FullLockConfig config = FullLockConfig::with_plrs({16});
  config.seed = 1;
  const LockedCircuit a = full_lock(original, config);
  config.seed = 2;
  const LockedCircuit b = full_lock(original, config);
  EXPECT_NE(a.correct_key, b.correct_key);
}

TEST(FullLock, HighCorruptionUnderWrongKeys) {
  const Netlist original = netlist::make_circuit("c880", 36);
  const LockedCircuit locked =
      full_lock(original, FullLockConfig::with_plrs({16}));
  const CorruptionStats stats = output_corruption(original, locked, 24, 4, 5);
  // §2: "the output corruption of this method is significantly higher than
  // obfuscating solutions relying on increasing N". Point-function schemes
  // corrupt ~2^-n of outputs; Full-Lock must corrupt a sizable fraction.
  EXPECT_GT(stats.mean_error_rate, 0.05);
}

TEST(FullLock, ReportCountsAreConsistent) {
  const Netlist original = netlist::make_circuit("c2670", 37);
  FullLockReport report;
  const LockedCircuit locked =
      full_lock(original, FullLockConfig::with_plrs({16, 8}), &report);
  EXPECT_EQ(report.key_bits, locked.key_bits());
  EXPECT_GE(report.num_luts, 0);
  EXPECT_EQ(report.num_plrs, 2);
  // MUX population reflects the CLN fabric.
  const auto hist = locked.netlist.type_histogram();
  EXPECT_GT(hist[static_cast<std::size_t>(netlist::GateType::kMux)], 0u);
}

TEST(FullLock, LutFreeVariant) {
  const Netlist original = netlist::make_circuit("i4", 38);
  FullLockConfig config = FullLockConfig::with_plrs(
      {8}, ClnTopology::kBanyanNonBlocking, CycleMode::kAvoid,
      /*twist_luts=*/false);
  FullLockReport report;
  const LockedCircuit locked = full_lock(original, config, &report);
  EXPECT_EQ(report.num_luts, 0);
  EXPECT_EQ(check_key(original, locked.netlist, locked.correct_key),
            KeyCheck::kProved);
}

TEST(FullLock, TwoInputDecompositionCapsLutSize) {
  const Netlist original = netlist::make_circuit("c3540", 40);
  FullLockConfig config = FullLockConfig::with_plrs({8});
  config.decompose_two_input = true;
  FullLockReport report;
  const LockedCircuit locked = full_lock(original, config, &report);
  EXPECT_EQ(check_key(original, locked.netlist, locked.correct_key),
            KeyCheck::kProved);
  // Every twisted consumer has <= 2 data inputs, so each LUT contributes at
  // most 4 truth-table key bits. Verify via the LUT key names.
  std::size_t lut_keys = 0;
  for (const netlist::GateId k : locked.netlist.keys()) {
    const std::string& name = locked.netlist.gate(k).name;
    if (name.find("_lut") != std::string::npos) ++lut_keys;
  }
  EXPECT_LE(lut_keys, 4u * static_cast<std::size_t>(report.num_luts));
}

TEST(FullLock, KeysSurviveBenchRoundTrip) {
  const Netlist original = netlist::make_circuit("c432", 39);
  const LockedCircuit locked =
      full_lock(original, FullLockConfig::with_plrs({8}));
  const Netlist reparsed = netlist::read_bench_string(
      netlist::write_bench_string(locked.netlist), "roundtrip");
  ASSERT_EQ(reparsed.num_keys(), locked.netlist.num_keys());
  EXPECT_TRUE(
      verify_unlocks(original, reparsed, locked.correct_key, 8, 7));
}

}  // namespace
}  // namespace fl::core

// End-to-end integration: every scheme locked on benchmark profiles, full
// verify + attack pipelines, cross-checks between attacks.
#include <gtest/gtest.h>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "attacks/removal.h"
#include "cnf/miter.h"
#include "core/full_lock.h"
#include "core/verify.h"
#include "locking/antisat.h"
#include "locking/crosslock.h"
#include "locking/lutlock.h"
#include "locking/rll.h"
#include "locking/sarlock.h"
#include "netlist/bench_io.h"
#include "netlist/profiles.h"

namespace fl {
namespace {

using core::LockedCircuit;
using netlist::Netlist;

// Every scheme on every small profile verifies under its correct key.
struct SchemeCase {
  const char* scheme;
  const char* profile;
};

class EveryScheme : public ::testing::TestWithParam<SchemeCase> {};

LockedCircuit lock_with(const std::string& scheme, const Netlist& original) {
  if (scheme == "full-lock") {
    return core::full_lock(original, core::FullLockConfig::with_plrs({8}));
  }
  if (scheme == "rll") {
    lock::RllConfig c;
    c.num_keys = 16;
    return lock::rll_lock(original, c);
  }
  if (scheme == "sarlock") {
    lock::SarLockConfig c;
    c.num_keys = 10;
    return lock::sarlock_lock(original, c);
  }
  if (scheme == "antisat") {
    lock::AntiSatConfig c;
    c.block_inputs = 8;
    return lock::antisat_lock(original, c);
  }
  if (scheme == "lut-lock") {
    lock::LutLockConfig c;
    c.num_luts = 8;
    return lock::lutlock_lock(original, c);
  }
  lock::CrossLockConfig c;
  c.num_sources = 8;
  c.num_destinations = 10;
  return lock::crosslock_lock(original, c);
}

TEST_P(EveryScheme, CorrectKeyUnlocksAndRoundTrips) {
  const SchemeCase param = GetParam();
  const Netlist original = netlist::make_circuit(param.profile, 1);
  const LockedCircuit locked = lock_with(param.scheme, original);
  EXPECT_EQ(locked.scheme, param.scheme);
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist,
                                     locked.correct_key));
  // The locked design survives a .bench round trip with keys intact.
  const Netlist reparsed = netlist::read_bench_string(
      netlist::write_bench_string(locked.netlist));
  EXPECT_TRUE(core::verify_unlocks(original, reparsed, locked.correct_key,
                                   8, 2));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EveryScheme,
    ::testing::Values(SchemeCase{"full-lock", "c432"},
                      SchemeCase{"full-lock", "c880"},
                      SchemeCase{"full-lock", "i4"},
                      SchemeCase{"rll", "c432"},
                      SchemeCase{"rll", "apex2"},
                      SchemeCase{"sarlock", "c499"},
                      SchemeCase{"antisat", "c432"},
                      SchemeCase{"lut-lock", "c880"},
                      SchemeCase{"cross-lock", "c1355"}));

TEST(Integration, SatKeyOnSmallRllIsProved) {
  const Netlist original = netlist::make_circuit("c432", 201);
  lock::RllConfig config;
  config.num_keys = 10;
  const LockedCircuit locked = lock::rll_lock(original, config);
  const attacks::Oracle oracle(original);
  const attacks::AttackResult sat =
      attacks::run("sat", locked.netlist, oracle).result;
  ASSERT_EQ(sat.status, attacks::AttackStatus::kSuccess);
  // The key may differ bitwise (unconstrained bits) but must unlock.
  EXPECT_EQ(core::check_key(original, locked.netlist, sat.key),
            core::KeyCheck::kProved);
}

TEST(Integration, SatAttackScalesWithClnSize) {
  // The central claim at miniature scale: attack effort grows steeply with
  // CLN size (Table 2 trend).
  const Netlist original = netlist::make_circuit("c880", 202);
  const attacks::Oracle oracle(original);
  attacks::AttackOptions options;
  options.timeout_s = 120.0;
  double t4 = 0, t8 = 0;
  for (const int n : {4, 8}) {
    const LockedCircuit locked =
        core::full_lock(original, core::FullLockConfig::with_plrs({n}));
    const attacks::AttackResult result =
        attacks::run("sat", locked.netlist, oracle, options).result;
    ASSERT_EQ(result.status, attacks::AttackStatus::kSuccess) << n;
    (n == 4 ? t4 : t8) = result.solver_stats.decisions;
  }
  EXPECT_GT(t8, t4);
}

TEST(Integration, CyclicFullLockPipeline) {
  const Netlist original = netlist::make_circuit("c499", 203);
  core::FullLockConfig config = core::FullLockConfig::with_plrs(
      {4}, core::ClnTopology::kBanyanNonBlocking, core::CycleMode::kForce);
  const LockedCircuit locked = core::full_lock(original, config);
  ASSERT_TRUE(locked.netlist.is_cyclic());
  // Prove the correct key, attack with CycSAT, prove the recovered key.
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist,
                                     locked.correct_key));
  const attacks::Oracle oracle(original);
  attacks::AttackOptions options;
  options.timeout_s = 120.0;
  const attacks::AttackResult result =
      attacks::run("cycsat", locked.netlist, oracle, options).result;
  ASSERT_EQ(result.status, attacks::AttackStatus::kSuccess);
  EXPECT_TRUE(
      cnf::check_equivalence(original, {}, locked.netlist, result.key));
}

TEST(Integration, OracleQueryCountEqualsDipCount) {
  const Netlist original = netlist::make_circuit("c432", 204);
  lock::LutLockConfig config;
  config.num_luts = 6;
  const LockedCircuit locked = lock::lutlock_lock(original, config);
  const attacks::Oracle oracle(original);
  const attacks::AttackResult result =
      attacks::run("sat", locked.netlist, oracle).result;
  ASSERT_EQ(result.status, attacks::AttackStatus::kSuccess);
  EXPECT_EQ(oracle.num_queries(), result.iterations);
}

}  // namespace
}  // namespace fl

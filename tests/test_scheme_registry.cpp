// The lock-scheme registry: name lookup, parameter parsing/validation,
// the point-function flag, attack-name helpers, and the locked-circuit
// provenance round-trip through .bench/.key files.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>

#include "core/verify.h"
#include "locking/scheme.h"
#include "netlist/bench_io.h"
#include "netlist/profiles.h"

namespace fl {
namespace {

TEST(SchemeRegistry, ListsAllSchemesSortedByUniqueName) {
  const auto& all = lock::registry();
  ASSERT_GE(all.size(), 8u);
  std::set<std::string> names;
  std::string previous;
  for (const lock::LockScheme* scheme : all) {
    const std::string name(scheme->name());
    EXPECT_FALSE(name.empty());
    EXPECT_GT(name, previous) << "registry must be sorted by name";
    previous = name;
    names.insert(name);
    EXPECT_FALSE(std::string(scheme->description()).empty()) << name;
    EXPECT_FALSE(std::string(scheme->params_help()).empty()) << name;
  }
  EXPECT_EQ(names.size(), all.size());
  for (const char* required :
       {"antisat", "cross-lock", "full-lock", "interlock", "lut-lock", "rll",
        "sarlock", "sfll-hd"}) {
    EXPECT_TRUE(names.count(required)) << required;
  }
}

TEST(SchemeRegistry, FindSchemeAndNames) {
  EXPECT_NE(lock::find_scheme("full-lock"), nullptr);
  EXPECT_NE(lock::find_scheme("sfll-hd"), nullptr);
  EXPECT_EQ(lock::find_scheme("nonesuch"), nullptr);
  const std::string names = lock::scheme_names();
  EXPECT_NE(names.find("interlock"), std::string::npos);
  EXPECT_NE(names.find("sarlock"), std::string::npos);
}

TEST(SchemeRegistry, LockWithUnknownSchemeThrows) {
  const netlist::Netlist original = netlist::make_c17();
  EXPECT_THROW(lock::lock_with("nonesuch", original, lock::make_options(1)),
               std::invalid_argument);
}

TEST(SchemeRegistry, ParseParamsMergesAndRejectsJunk) {
  lock::SchemeOptions options;
  lock::parse_params_into(options, "keys=8, hd=1");
  EXPECT_EQ(options.params.at("keys"), "8");
  EXPECT_EQ(options.params.at("hd"), "1");
  lock::parse_params_into(options, "keys=16");  // later wins
  EXPECT_EQ(options.params.at("keys"), "16");
  EXPECT_THROW(lock::parse_params_into(options, "keys"),
               std::invalid_argument);
}

TEST(SchemeRegistry, ValidateRejectsUnknownAndOutOfRangeParams) {
  const lock::LockScheme* sarlock = lock::find_scheme("sarlock");
  ASSERT_NE(sarlock, nullptr);
  EXPECT_NO_THROW(sarlock->validate(lock::make_options(1, {}, "keys=8")));
  // Unknown parameter names the known set.
  try {
    sarlock->validate(lock::make_options(1, {}, "kyes=8"));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("kyes"), std::string::npos);
  }
  EXPECT_THROW(sarlock->validate(lock::make_options(1, {}, "keys=0")),
               std::invalid_argument);
  EXPECT_THROW(sarlock->validate(lock::make_options(1, {}, "keys=banana")),
               std::invalid_argument);
  const lock::LockScheme* sfll = lock::find_scheme("sfll-hd");
  ASSERT_NE(sfll, nullptr);
  EXPECT_THROW(sfll->validate(lock::make_options(1, {}, "keys=4,hd=9")),
               std::invalid_argument);
}

TEST(SchemeRegistry, PointFunctionIsTrueExactlyForTheComparatorSchemes) {
  std::set<std::string> point;
  for (const lock::LockScheme* scheme : lock::registry()) {
    if (scheme->point_function()) point.insert(std::string(scheme->name()));
  }
  EXPECT_EQ(point, (std::set<std::string>{"antisat", "sarlock", "sfll-hd"}));
}

TEST(SchemeRegistry, FullLockParseRejectsBadChoicesAndStampsBooleans) {
  const lock::LockScheme* full = lock::find_scheme("full-lock");
  ASSERT_NE(full, nullptr);
  EXPECT_THROW(full->validate(lock::make_options(1, {}, "cycle=bogus")),
               std::invalid_argument);
  // "false" is as false as "0", and the stamp says so.
  const core::LockedCircuit locked =
      full->lock(netlist::make_circuit("c432", 2),
                 lock::make_options(1, {}, "sizes=8,twist=false,negate=0"));
  EXPECT_NE(locked.params.find("twist=0"), std::string::npos)
      << locked.params;
}

TEST(SchemeRegistry, AttackHelpers) {
  EXPECT_EQ(lock::resolve_attack("auto", /*cyclic=*/false), "sat");
  EXPECT_EQ(lock::resolve_attack("auto", /*cyclic=*/true), "cycsat");
  EXPECT_EQ(lock::resolve_attack("double-dip", /*cyclic=*/true), "cycsat");
  EXPECT_EQ(lock::resolve_attack("double-dip", /*cyclic=*/false),
            "double-dip");
  EXPECT_EQ(lock::resolve_attack("fall", /*cyclic=*/false), "fall");
  EXPECT_EQ(lock::resolve_attack("appsat", /*cyclic=*/true), "appsat");
}

TEST(SchemeRegistry, ProvenanceRoundTripsThroughBenchFiles) {
  const netlist::Netlist original = netlist::make_circuit("c432", 2);
  const core::LockedCircuit locked = lock::lock_with(
      "sarlock", original, lock::make_options(7, {}, "keys=8"));
  const std::string path = testing::TempDir() + "scheme_roundtrip.bench";
  lock::write_locked_circuit(locked, path);

  const core::LockedCircuit loaded = lock::read_locked_circuit(path);
  EXPECT_EQ(loaded.scheme, "sarlock");
  EXPECT_EQ(loaded.params, locked.params);
  EXPECT_NE(loaded.scheme, "file") << "tool-made locks must keep provenance";
  EXPECT_EQ(loaded.netlist.num_keys(), locked.netlist.num_keys());
  EXPECT_EQ(loaded.netlist.num_gates(), locked.netlist.num_gates());
  // The attacker's view: no key material in the .bench itself.
  EXPECT_TRUE(loaded.correct_key.empty());

  // The .key sidecar carries the same provenance header plus the key bits.
  std::ifstream key_file(path + ".key");
  ASSERT_TRUE(key_file.good());
  std::string line;
  std::getline(key_file, line);
  EXPECT_EQ(line, "# lock-scheme: sarlock");
  std::getline(key_file, line);
  EXPECT_EQ(line.rfind("# lock-params: ", 0), 0u);
}

TEST(SchemeRegistry, ForeignBenchFilesFallBackToFileScheme) {
  const netlist::Netlist original = netlist::make_c17();
  const std::string path = testing::TempDir() + "foreign.bench";
  netlist::write_bench_file(original, path);
  const core::LockedCircuit loaded = lock::read_locked_circuit(path);
  EXPECT_EQ(loaded.scheme, "file");
  EXPECT_TRUE(loaded.params.empty());
  EXPECT_EQ(loaded.netlist.num_inputs(), original.num_inputs());
}

TEST(SchemeRegistry, WriteLockedCircuitReportsFailures) {
  const netlist::Netlist original = netlist::make_c17();
  const core::LockedCircuit locked =
      lock::lock_with("rll", original, lock::make_options(1, {}, "keys=4"));
  EXPECT_THROW(
      lock::write_locked_circuit(locked, "/nonexistent-dir/x/y.bench"),
      std::runtime_error);
}

TEST(SchemeRegistry, CanonicalParamsAreReproducible) {
  const netlist::Netlist original = netlist::make_circuit("c432", 2);
  // Defaults are materialized into the canonical string, so provenance
  // fully determines the lock (given the seed).
  const core::LockedCircuit a =
      lock::lock_with("full-lock", original, lock::make_options(5));
  EXPECT_NE(a.params.find("sizes=16"), std::string::npos);
  EXPECT_NE(a.params.find("topology=banyan"), std::string::npos);
  const core::LockedCircuit b = lock::lock_with(
      "full-lock", original, lock::make_options(5, {}, a.params));
  EXPECT_EQ(a.params, b.params);
  EXPECT_EQ(a.correct_key, b.correct_key);
}

}  // namespace
}  // namespace fl

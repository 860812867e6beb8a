// Cross-scheme property sweeps over the lock-scheme registry: every
// registered transform must (1) preserve the interface and account for its
// key width, (2) unlock under its correct key, (3) be deterministic in its
// seed, (4) produce keys following the keyinput naming convention,
// (5) stamp its canonical scheme/params provenance, and (6) corrupt wrong
// keys in the shape its point_function() flag promises (point functions
// err on almost nothing; the rest corrupt measurably).
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "cnf/miter.h"
#include "core/verify.h"
#include "locking/scheme.h"
#include "netlist/profiles.h"

namespace fl {
namespace {

using core::LockedCircuit;
using netlist::Netlist;

// Small-but-representative parameters per scheme, keeping the whole grid
// fast. A scheme added to the registry without a row here fails loudly.
const std::map<std::string, std::string>& test_params() {
  static const std::map<std::string, std::string> params = {
      {"antisat", "inputs=6"},
      {"cross-lock", "sources=8,dests=10"},
      {"full-lock", "sizes=8"},
      {"interlock", "sizes=8"},
      {"lut-lock", "luts=6"},
      {"rll", "keys=12"},
      {"sarlock", "keys=8"},
      {"sfll-hd", "keys=8,hd=1"},
  };
  return params;
}

struct PropertyCase {
  std::string scheme;
  const char* profile;
  std::uint64_t seed;
};

LockedCircuit lock_case(const PropertyCase& p, const Netlist& original) {
  const auto it = test_params().find(p.scheme);
  if (it == test_params().end()) {
    ADD_FAILURE() << "scheme '" << p.scheme
                  << "' has no test parameters; add a test_params() row";
  }
  const std::string params =
      it == test_params().end() ? std::string() : it->second;
  return lock::lock_with(p.scheme, original,
                         lock::make_options(p.seed, {}, params));
}

class LockProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(LockProperty, InterfaceAndUnlockInvariants) {
  const PropertyCase p = GetParam();
  const Netlist original = netlist::make_circuit(p.profile, p.seed);
  const LockedCircuit locked = lock_case(p, original);

  // (1) Interface preserved, key width accounted for.
  ASSERT_EQ(locked.netlist.num_inputs(), original.num_inputs());
  ASSERT_EQ(locked.netlist.num_outputs(), original.num_outputs());
  ASSERT_EQ(locked.netlist.num_keys(), locked.correct_key.size());
  ASSERT_GT(locked.key_bits(), 0u);
  EXPECT_NO_THROW(locked.netlist.validate());

  // (2) Correct key unlocks, proved (a cyclic lock on the netlist its key
  // specialises it to).
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist,
                                     locked.correct_key));

  // (3) Deterministic in the seed.
  const LockedCircuit again = lock_case(p, original);
  EXPECT_EQ(again.correct_key, locked.correct_key);
  EXPECT_EQ(again.netlist.num_gates(), locked.netlist.num_gates());

  // (4) Key naming convention.
  for (const netlist::GateId k : locked.netlist.keys()) {
    EXPECT_TRUE(locked.netlist.gate(k).name.starts_with("keyinput"))
        << locked.netlist.gate(k).name;
  }

  // (5) Canonical provenance stamped by the registry.
  EXPECT_EQ(locked.scheme, p.scheme);
  EXPECT_FALSE(locked.params.empty());

  // (6) Wrong-key corruption matches the scheme's declared class.
  const lock::LockScheme* scheme = lock::find_scheme(p.scheme);
  ASSERT_NE(scheme, nullptr);
  if (scheme->point_function()) {
    // Each wrong key errs on a vanishing fraction of the input space.
    const core::CorruptionStats corruption =
        core::output_corruption(original, locked, 8, 4, p.seed);
    EXPECT_LT(corruption.mean_error_rate, 0.05)
        << "point-function scheme corrupts too much";
  } else {
    // The maximally-wrong key (all bits flipped: every truth table
    // complemented, every XOR inverted, every route permuted) is provably a
    // different function. Random sampling can miss the corrupted minterms
    // for schemes with few small key cones (e.g. lut-lock's 6 LUTs deep in
    // i4's wide AND cones), so the key check settles it with the proof.
    std::vector<bool> flipped = locked.correct_key;
    flipped.flip();
    EXPECT_EQ(core::check_key(original, locked.netlist, flipped),
              core::KeyCheck::kRefuted)
        << "non-point-function scheme is equivalent under the flipped key";
  }
}

std::vector<PropertyCase> grid() {
  std::vector<PropertyCase> cases;
  for (const lock::LockScheme* scheme : lock::registry()) {
    for (const char* profile : {"c499", "i4"}) {
      for (const std::uint64_t seed : {3ull, 17ull}) {
        cases.push_back({std::string(scheme->name()), profile, seed});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, LockProperty, ::testing::ValuesIn(grid()),
                         [](const auto& info) {
                           std::string name = info.param.scheme;
                           name += "_";
                           name += info.param.profile;
                           name += "_s" + std::to_string(info.param.seed);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace fl

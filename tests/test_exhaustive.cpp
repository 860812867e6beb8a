// Exhaustive ground truth on tiny locks. With 10 primary inputs every input
// pattern fits in 16 simulator words, so whether a key unlocks is decided
// by simulation alone, with no SAT solver. That referees every attack
// behind attacks::run (each success key), cnf::check_equivalence (its
// verdict and its counterexamples) and core::check_key, on every
// registered scheme. Where a lock has at most 16 key bits, every key is
// refereed, not only the attacks'.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "cnf/miter.h"
#include "core/verify.h"
#include "locking/scheme.h"
#include "netlist/generator.h"
#include "netlist/simulator.h"

namespace fl {
namespace {

using netlist::Netlist;
using netlist::Word;

constexpr std::size_t kInputs = 10;
constexpr std::size_t kPatterns = std::size_t{1} << kInputs;
constexpr std::size_t kWords = kPatterns / 64;
constexpr std::size_t kMaxEnumeratedKeyBits = 16;

const std::vector<std::uint64_t> kHostSeeds = {1, 2};
const std::vector<std::uint64_t> kLockSeeds = {1, 2};

// Every input pattern, net-major: pattern p sets input i to bit i of p and
// sits in lane p % 64 of word p / 64.
std::vector<Word> all_patterns() {
  std::vector<Word> in(kInputs * kWords, 0);
  for (std::size_t p = 0; p < kPatterns; ++p) {
    for (std::size_t i = 0; i < kInputs; ++i) {
      if ((p >> i) & 1) in[i * kWords + p / 64] |= Word{1} << (p % 64);
    }
  }
  return in;
}

std::size_t pattern_index(const std::vector<bool>& pattern) {
  std::size_t p = 0;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i]) p |= std::size_t{1} << i;
  }
  return p;
}

// One host and its outputs on every input pattern.
struct Reference {
  Netlist original;
  std::vector<Word> inputs = all_patterns();
  std::vector<Word> golden;

  explicit Reference(std::uint64_t seed)
      : original(netlist::generate_circuit({.num_inputs = kInputs,
                                            .num_outputs = 5,
                                            .num_gates = 60,
                                            .seed = seed})) {
    golden = netlist::simulate(original, inputs, {}, kWords).outputs;
  }

  // One bit per input pattern, set where `locked` under `key` differs from
  // the original on some output or does not settle.
  std::vector<Word> wrong_lanes(const Netlist& locked,
                                const std::vector<bool>& key) const {
    const netlist::SimResult sim =
        netlist::simulate(locked, inputs, netlist::broadcast(key), kWords);
    std::vector<Word> wrong(kWords);
    for (std::size_t w = 0; w < kWords; ++w) {
      wrong[w] = ~sim.converged[w];
      for (std::size_t o = 0; o < golden.size() / kWords; ++o) {
        wrong[w] |= sim.outputs[o * kWords + w] ^ golden[o * kWords + w];
      }
    }
    return wrong;
  }
};

bool none(const std::vector<Word>& lanes) {
  return std::all_of(lanes.begin(), lanes.end(),
                     [](Word w) { return w == 0; });
}

// Checks the SAT-based verdicts on `key` against the exhaustive one and
// returns the latter: check_equivalence agrees with it (it may throw when
// a cycle survives the key) and each of its counterexamples is a pattern
// the key gets wrong; check_key never refutes a correct key and never
// passes a wrong one.
bool referee(const Reference& ref, const Netlist& locked,
             const std::vector<bool>& key, const std::string& where) {
  const std::vector<Word> wrong = ref.wrong_lanes(locked, key);
  const bool correct = none(wrong);
  std::vector<bool> cex;
  std::optional<bool> equivalent;
  try {
    equivalent = cnf::check_equivalence(ref.original, {}, locked, key, &cex);
  } catch (const std::invalid_argument&) {
  }
  if (equivalent.has_value()) {
    EXPECT_EQ(*equivalent, correct) << where;
    if (!*equivalent) {
      const std::size_t p = pattern_index(cex);
      EXPECT_TRUE((wrong[p / 64] >> (p % 64)) & 1)
          << where << ": counterexample " << p << " is not wrong";
    }
  }
  const core::KeyCheck check = core::check_key(ref.original, locked, key);
  EXPECT_EQ(check == core::KeyCheck::kRefuted, !correct)
      << where << ": check_key says " << core::to_string(check);
  return correct;
}

std::string key_text(const std::vector<bool>& key) {
  std::string s;
  for (const bool b : key) s.push_back(b ? '1' : '0');
  return s;
}

// Locks every host at every lock seed with `scheme` at `params`, referees
// the correct key, every key an applicable attack returns and, on locks of
// at most 16 key bits, every key.
void check_scheme(const std::string& scheme, const std::string& params) {
  for (const std::uint64_t host_seed : kHostSeeds) {
    const Reference ref(host_seed);
    for (const std::uint64_t lock_seed : kLockSeeds) {
      const core::LockedCircuit locked = lock::lock_with(
          scheme, ref.original, lock::make_options(lock_seed, {}, params));
      const Netlist& net = locked.netlist;
      const std::string lock_name = scheme + " " + params + " host " +
                                    std::to_string(host_seed) + " lock " +
                                    std::to_string(lock_seed);
      ASSERT_TRUE(
          referee(ref, net, locked.correct_key, lock_name + " correct key"));

      for (const std::string name :
           {"auto", "sat", "cycsat", "appsat", "double-dip", "fall"}) {
        // Plain SAT has no answer to the stateful keys of a cyclic lock and
        // runs into its timeout there by design.
        if (name == "sat" && net.is_cyclic()) continue;
        const attacks::Oracle oracle(ref.original);
        attacks::AttackOptions options;
        options.timeout_s = 10.0;
        const attacks::RunResult run =
            attacks::run(name, net, oracle, options);
        const std::string where = lock_name + " " + name + " (" +
                                  attacks::to_string(run.result.status) +
                                  ") key " + key_text(run.result.key);
        const bool correct = referee(ref, net, run.result.key, where);
        if (run.result.status == attacks::AttackStatus::kSuccess) {
          EXPECT_TRUE(correct) << where;
        }
        // The exact attacks break every lock this small. On an acyclic lock
        // a DIP, once constrained, never comes back, so nothing is banned.
        if (name != "appsat" && name != "fall") {
          EXPECT_EQ(run.result.status, attacks::AttackStatus::kSuccess)
              << where;
        }
        if (!net.is_cyclic()) EXPECT_EQ(run.result.banned_keys, 0u) << where;
      }

      if (net.num_keys() > kMaxEnumeratedKeyBits) continue;
      std::vector<bool> key(net.num_keys());
      for (std::uint32_t k = 0; k < (std::uint32_t{1} << key.size()); ++k) {
        for (std::size_t b = 0; b < key.size(); ++b) key[b] = (k >> b) & 1;
        referee(ref, net, key, lock_name + " key " + key_text(key));
      }
    }
  }
}

TEST(Exhaustive, CoversEveryRegisteredScheme) {
  const std::set<std::string> covered = {
      "antisat", "cross-lock", "full-lock", "interlock",
      "lut-lock", "rll", "sarlock", "sfll-hd"};
  for (const lock::LockScheme* scheme : lock::registry()) {
    EXPECT_TRUE(covered.count(std::string(scheme->name())) > 0)
        << scheme->name() << " has no exhaustive test";
  }
}

TEST(Exhaustive, Rll) { check_scheme("rll", "keys=8"); }
TEST(Exhaustive, LutLock) { check_scheme("lut-lock", "luts=2"); }
TEST(Exhaustive, Sarlock) { check_scheme("sarlock", "keys=6"); }
TEST(Exhaustive, AntiSat) { check_scheme("antisat", "inputs=4"); }
TEST(Exhaustive, SfllHd) { check_scheme("sfll-hd", "keys=6,hd=1"); }
TEST(Exhaustive, CrossLock) { check_scheme("cross-lock", "sources=4,dests=5"); }
TEST(Exhaustive, FullLock) { check_scheme("full-lock", "sizes=4"); }
TEST(Exhaustive, FullLockUntwisted) {
  check_scheme("full-lock", "sizes=4,twist=0");
}
TEST(Exhaustive, FullLockCycleAllow) {
  check_scheme("full-lock", "sizes=4,cycle=allow");
}
TEST(Exhaustive, FullLockCycleForce) {
  check_scheme("full-lock", "sizes=4,cycle=force");
}
TEST(Exhaustive, InterLock) { check_scheme("interlock", "sizes=4"); }

}  // namespace
}  // namespace fl

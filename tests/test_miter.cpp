// Miter construction and SAT equivalence checking.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "cnf/miter.h"
#include "core/full_lock.h"
#include "locking/scheme.h"
#include "netlist/generator.h"
#include "netlist/profiles.h"
#include "netlist/simulator.h"
#include "netlist/structure.h"
#include "sat/solver.h"

#include "miter_reference.h"

namespace fl::cnf {
namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

TEST(CheckEquivalence, CircuitEqualsItself) {
  const Netlist c17 = netlist::make_c17();
  EXPECT_TRUE(check_equivalence(c17, {}, c17, {}));
}

TEST(CheckEquivalence, DetectsSingleGateChange) {
  const Netlist c17 = netlist::make_c17();
  Netlist mutated = c17;
  mutated.retype(mutated.outputs()[0].gate, GateType::kAnd);  // NAND -> AND
  std::vector<bool> cex;
  EXPECT_FALSE(check_equivalence(c17, {}, mutated, {}, &cex));
  ASSERT_EQ(cex.size(), c17.num_inputs());
  // The counterexample actually distinguishes them.
  const auto out_a = netlist::eval_once(c17, cex, {});
  const auto out_b = netlist::eval_once(mutated, cex, {});
  EXPECT_NE(out_a, out_b);
}

TEST(CheckEquivalence, StructurallyDifferentButEqual) {
  // DeMorgan: NAND(a,b) == OR(NOT a, NOT b).
  Netlist lhs;
  {
    const GateId a = lhs.add_input("a");
    const GateId b = lhs.add_input("b");
    lhs.mark_output(lhs.add_gate(GateType::kNand, {a, b}), "y");
  }
  Netlist rhs;
  {
    const GateId a = rhs.add_input("a");
    const GateId b = rhs.add_input("b");
    const GateId na = rhs.add_gate(GateType::kNot, {a});
    const GateId nb = rhs.add_gate(GateType::kNot, {b});
    rhs.mark_output(rhs.add_gate(GateType::kOr, {na, nb}), "y");
  }
  EXPECT_TRUE(check_equivalence(lhs, {}, rhs, {}));
}

TEST(CheckEquivalence, KeyedCircuitUnderCorrectKey) {
  // locked = XOR(original, key): equal iff key = 0.
  Netlist original;
  const GateId a0 = original.add_input("a");
  original.mark_output(original.add_gate(GateType::kNot, {a0}), "y");
  Netlist locked;
  const GateId a1 = locked.add_input("a");
  const GateId k = locked.add_key("k");
  const GateId inv = locked.add_gate(GateType::kNot, {a1});
  locked.mark_output(locked.add_gate(GateType::kXor, {inv, k}), "y");
  EXPECT_TRUE(check_equivalence(original, {}, locked, {false}));
  EXPECT_FALSE(check_equivalence(original, {}, locked, {true}));
}

TEST(CheckEquivalence, InterfaceMismatchThrows) {
  const Netlist c17 = netlist::make_c17();
  Netlist tiny;
  tiny.add_input("a");
  tiny.mark_output(tiny.add_gate(GateType::kNot, {0}), "y");
  EXPECT_THROW(check_equivalence(c17, {}, tiny, {}), std::invalid_argument);
}

// True iff `pattern` makes `locked` under `key` and `original` disagree on
// some output.
bool distinguishes(const Netlist& original, const Netlist& locked,
                   const std::vector<bool>& key,
                   const std::vector<bool>& pattern) {
  const std::vector<netlist::Word> inputs = netlist::broadcast(pattern);
  const netlist::SimResult expected =
      netlist::simulate(original, inputs, {}, 1);
  const netlist::SimResult got =
      netlist::simulate(locked, inputs, netlist::broadcast(key), 1);
  for (std::size_t o = 0; o < expected.outputs.size(); ++o) {
    if (((expected.outputs[o] ^ got.outputs[o]) & 1) != 0) return true;
  }
  return false;
}

TEST(CheckEquivalence, ConstantDifferenceStillYieldsACounterexample) {
  // Outputs tied to opposite constants: the difference is constant before
  // any solve, and every pattern distinguishes.
  Netlist zero;
  zero.add_input("a");
  zero.mark_output(zero.add_const(false), "y");
  Netlist one;
  one.add_input("a");
  one.mark_output(one.add_const(true), "y");
  std::vector<bool> cex;
  EXPECT_FALSE(check_equivalence(zero, {}, one, {}, &cex));
  ASSERT_EQ(cex.size(), 1u);
  EXPECT_TRUE(distinguishes(zero, one, {}, cex));

  // A flipped key turns y = ~a into y = a: once the key is folded in, the
  // pair (~a, a) differs on every pattern, again without a solve.
  Netlist original;
  const GateId a0 = original.add_input("a");
  original.mark_output(original.add_gate(GateType::kNot, {a0}), "y");
  Netlist locked;
  const GateId a1 = locked.add_input("a");
  const GateId k = locked.add_key("k");
  const GateId inv = locked.add_gate(GateType::kNot, {a1});
  locked.mark_output(locked.add_gate(GateType::kXor, {inv, k}), "y");
  cex.clear();
  EXPECT_FALSE(check_equivalence(original, {}, locked, {true}, &cex));
  ASSERT_EQ(cex.size(), 1u);
  EXPECT_TRUE(distinguishes(original, locked, {true}, cex));
}

TEST(CheckEquivalence, ProvesAKeyThatCutsTheCycleAndThrowsOnOneThatKeepsIt) {
  // y = MUX(k, a, z) with z = NOT y: k = 0 routes a straight to y, k = 1
  // closes the loop y -> z -> y.
  Netlist original;
  original.mark_output(original.add_input("a"), "y");
  Netlist locked;
  const GateId a = locked.add_input("a");
  const GateId k = locked.add_key("k");
  const GateId y = locked.add_gate(GateType::kMux, {k, a, a});
  const GateId z = locked.add_gate(GateType::kNot, {y});
  locked.set_fanin(y, std::vector<GateId>{k, a, z});
  locked.mark_output(y, "y");
  ASSERT_TRUE(locked.is_cyclic());
  EXPECT_TRUE(check_equivalence(original, {}, locked, {false}));
  EXPECT_THROW(check_equivalence(original, {}, locked, {true}),
               std::invalid_argument);
}

// Each scheme's lock-matrix leg (.github/workflows/lock-matrix.yml).
const std::map<std::string, std::string, std::less<>>& matrix_params() {
  static const std::map<std::string, std::string, std::less<>> params = {
      {"antisat", "inputs=6"},
      {"cross-lock", "sources=8,dests=12"},
      {"full-lock", "sizes=8"},
      {"interlock", "sizes=8"},
      {"lut-lock", "luts=6"},
      {"rll", "keys=16"},
      {"sarlock", "keys=8"},
      {"sfll-hd", "keys=8,hd=1"},
  };
  return params;
}

TEST(CheckEquivalence, AgreesWithTheTwoCopyMiterOnEverySchemeAndKeyFlip) {
  // Differential check of the specialise-hash-solve proof against the
  // two-copy miter it replaced: every registered scheme on c432 and c880 at
  // lock seeds 1-3. The correct key must be proved, each of its first 32
  // one-bit flips must get the reference's verdict, and every refutation
  // must carry a pattern on which simulation tells the netlists apart.
  for (const lock::LockScheme* scheme : lock::registry()) {
    const auto params = matrix_params().find(scheme->name());
    ASSERT_NE(params, matrix_params().end())
        << "add a matrix_params() row for " << scheme->name();
    for (const char* profile : {"c432", "c880"}) {
      const Netlist original = netlist::make_circuit(profile, 1);
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const core::LockedCircuit locked =
            lock::lock_with(scheme->name(), original,
                            lock::make_options(seed, {}, params->second));
        const std::string label = std::string(scheme->name()) + " on " +
                                  profile + " seed " + std::to_string(seed);
        const Netlist& net = locked.netlist;
        ASSERT_FALSE(net.is_cyclic()) << label;
        EXPECT_TRUE(check_equivalence(original, {}, net, locked.correct_key))
            << label;
        const std::size_t flips = std::min<std::size_t>(32, net.num_keys());
        int refuted = 0;
        for (std::size_t bit = 0; bit < flips; ++bit) {
          std::vector<bool> key = locked.correct_key;
          key[bit] = !key[bit];
          std::vector<bool> cex;
          const bool equal = check_equivalence(original, {}, net, key, &cex);
          ASSERT_EQ(equal, reference_equivalent(original, {}, net, key))
              << label << " bit " << bit;
          if (!equal) {
            ++refuted;
            ASSERT_EQ(cex.size(), original.num_inputs()) << label;
            EXPECT_TRUE(distinguishes(original, net, key, cex))
                << label << " bit " << bit;
          }
        }
        EXPECT_GT(refuted, 0) << label;
      }
    }
  }
}

TEST(CheckEquivalence, ProvesCycSatKeysOnCyclicFullLock) {
  // CycSAT's routing key cuts every cycle of a cyclic Full-Lock, so the key
  // is proved on the acyclic netlist it specialises the lock to.
  const Netlist original = netlist::make_circuit("c432", 1);
  const attacks::Oracle oracle(original);
  int cyclic = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const core::LockedCircuit locked = lock::lock_with(
        "full-lock", original,
        lock::make_options(seed, {}, "sizes=4,cycle=allow"));
    if (!locked.netlist.is_cyclic()) continue;
    ++cyclic;
    attacks::AttackOptions options;
    options.timeout_s = 60.0;
    const attacks::AttackResult result =
        attacks::run("cycsat", locked.netlist, oracle, options).result;
    ASSERT_EQ(result.status, attacks::AttackStatus::kSuccess) << seed;
    EXPECT_TRUE(check_equivalence(original, {}, locked.netlist, result.key))
        << seed;
  }
  EXPECT_GT(cyclic, 0);
}

TEST(AttackMiter, KeylessCircuitIsTriviallyEqual) {
  const Netlist c17 = netlist::make_c17();
  sat::Solver solver;
  const AttackMiter miter = encode_attack_miter(c17, solver);
  EXPECT_TRUE(miter.trivially_equal);
}

TEST(AttackMiter, FindsDipForKeyedCircuit) {
  Netlist locked;
  const GateId a = locked.add_input("a");
  const GateId k = locked.add_key("k");
  locked.mark_output(locked.add_gate(GateType::kXor, {a, k}), "y");
  sat::Solver solver;
  const AttackMiter miter = encode_attack_miter(locked, solver);
  ASSERT_FALSE(miter.trivially_equal);
  const sat::Lit assume[] = {miter.activate};
  // Keys differ -> outputs differ on every input: SAT.
  ASSERT_EQ(solver.solve(assume), sat::LBool::kTrue);
  EXPECT_NE(solver.value_of(miter.key1[0]), solver.value_of(miter.key2[0]));
}

TEST(AttackMiter, IoConstraintPinsKey) {
  Netlist locked;
  const GateId a = locked.add_input("a");
  const GateId k = locked.add_key("k");
  locked.mark_output(locked.add_gate(GateType::kXor, {a, k}), "y");
  sat::Solver solver;
  const AttackMiter miter = encode_attack_miter(locked, solver);
  // Oracle says: input a=0 -> output 0. Then k must be 0 in both copies.
  const std::vector<std::vector<sat::Var>> copies = {miter.key1, miter.key2};
  add_io_constraint(locked, solver, copies, {false}, {false});
  const sat::Lit assume[] = {miter.activate};
  EXPECT_EQ(solver.solve(assume), sat::LBool::kFalse);  // no DIP remains
  ASSERT_EQ(solver.solve(), sat::LBool::kTrue);
  EXPECT_FALSE(solver.value_of(miter.key1[0]));
}

TEST(AttackMiter, SharedInputsAcrossCopies) {
  const Netlist profile = netlist::make_circuit("i4", 3);
  // Give it a key so the miter is non-trivial.
  Netlist locked = profile;
  const GateId k = locked.add_key("k");
  const GateId old_out = locked.outputs()[0].gate;
  const GateId g = locked.add_gate(GateType::kXor, {old_out, k});
  locked.set_output_gate(0, g);
  sat::Solver solver;
  const AttackMiter miter = encode_attack_miter(locked, solver);
  ASSERT_EQ(miter.inputs.size(), locked.num_inputs());
  ASSERT_EQ(miter.key1.size(), 1u);
  ASSERT_EQ(miter.key2.size(), 1u);
  EXPECT_NE(miter.key1[0], miter.key2[0]);
}

TEST(AttackMiter, SharedInputsMatchDuplicatedEncoding) {
  // The miter encodes its two copies directly over one input vector. The
  // older construction — fresh inputs for copy 2, tied back with pairwise
  // equality clauses — must be strictly larger yet find the same DIPs.
  Netlist locked;
  const GateId a = locked.add_input("a");
  const GateId b = locked.add_input("b");
  const GateId k0 = locked.add_key("k0");
  const GateId k1 = locked.add_key("k1");
  const GateId x0 = locked.add_gate(GateType::kXor, {a, k0});
  const GateId x1 = locked.add_gate(GateType::kXor, {b, k1});
  locked.mark_output(locked.add_gate(GateType::kNand, {x0, x1}), "y");

  sat::Solver shared;
  const AttackMiter miter = encode_attack_miter(locked, shared);
  ASSERT_FALSE(miter.trivially_equal);

  sat::Solver dup;
  SolverSink sink(dup);
  const EncodedCircuit copy1 = encode(locked, sink);
  const EncodedCircuit copy2 = encode(locked, sink);
  for (std::size_t i = 0; i < copy1.input_vars.size(); ++i) {
    const sat::Lit p = sat::pos(copy1.input_vars[i]);
    const sat::Lit q = sat::pos(copy2.input_vars[i]);
    dup.add_clause({~p, q});
    dup.add_clause({p, ~q});
  }
  const NetLit diff = encode_difference(copy1.outputs, copy2.outputs, sink);
  ASSERT_FALSE(diff.is_const());
  dup.add_clause({diff.lit});

  EXPECT_LT(shared.num_vars(), dup.num_vars());
  EXPECT_LT(shared.num_clauses(), dup.num_clauses());

  // Differential DIP enumeration: both constructions expose the same set of
  // distinguishing input patterns (one key pair suffices per pattern here).
  const auto dips = [&](sat::Solver& solver, std::span<const sat::Var> inputs,
                        const sat::Lit* activate) {
    std::vector<int> patterns;
    while (true) {
      const sat::LBool r = activate != nullptr
                               ? solver.solve(std::span(activate, 1))
                               : solver.solve();
      if (r != sat::LBool::kTrue) break;
      int pattern = 0;
      sat::Clause ban;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        const bool v = solver.value_of(inputs[i]);
        pattern |= static_cast<int>(v) << i;
        ban.push_back(sat::Lit(inputs[i], v));
      }
      patterns.push_back(pattern);
      if (!solver.add_clause(ban)) break;
    }
    std::sort(patterns.begin(), patterns.end());
    return patterns;
  };
  const std::vector<int> shared_dips =
      dips(shared, miter.inputs, &miter.activate);
  const std::vector<int> dup_dips = dips(dup, copy1.input_vars, nullptr);
  EXPECT_EQ(shared_dips, dup_dips);
  EXPECT_FALSE(shared_dips.empty());
}


TEST(DeobfuscationRatio, UnitPinnedInputsKeepVariables) {
  // inputs_as_unit_clauses must allocate input vars and pin them, unlike
  // the folding default which substitutes constants.
  const Netlist c17 = netlist::make_c17();
  sat::Cnf folded_cnf, pinned_cnf;
  {
    CnfSink sink(folded_cnf);
    EncodeOptions options;
    options.fixed_inputs = {true, false, true, false, true};
    encode(c17, sink, options);
  }
  {
    CnfSink sink(pinned_cnf);
    EncodeOptions options;
    options.fold_constants = false;
    options.inputs_as_unit_clauses = true;
    options.fixed_inputs = {true, false, true, false, true};
    const EncodedCircuit enc = encode(c17, sink, options);
    for (const sat::Var v : enc.input_vars) EXPECT_NE(v, sat::kNullVar);
  }
  EXPECT_EQ(folded_cnf.num_vars, 0);   // whole circuit folded away
  EXPECT_EQ(pinned_cnf.num_vars, 11);  // 5 inputs + 6 gates
  // 6 NANDs x 3 clauses + 5 unit pins.
  EXPECT_EQ(pinned_cnf.clauses.size(), 23u);
}

TEST(DeobfuscationRatio, PureMuxFabricApproachesFour) {
  // A deep MUX cascade (key-selected) is the paper's hard-instance shape:
  // 1 var / 4 clauses per MUX, so with inputs pinned the ratio approaches 4.
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  GateId cur = a;
  for (int i = 0; i < 200; ++i) {
    const GateId k = n.add_key("keyinput" + std::to_string(i));
    cur = n.add_gate(GateType::kMux, {k, cur, b});
  }
  n.mark_output(cur, "y");
  const double ratio = deobfuscation_cnf_ratio(n, /*num_dips=*/64, 5);
  EXPECT_GT(ratio, 3.5);
  EXPECT_LT(ratio, 4.05);
}

TEST(DeobfuscationRatio, MoreDipsDiluteFreeKeyVariables) {
  const Netlist original = netlist::make_circuit("c432", 7);
  Netlist locked = original;
  // A key-heavy lock: ratio must rise as DIP copies amortize the key vars.
  for (int i = 0; i < 64; ++i) {
    const GateId k = locked.add_key("keyinput" + std::to_string(i));
    const GateId w = locked.outputs()[i % locked.num_outputs()].gate;
    const GateId g = locked.add_gate(GateType::kXor, {w, k});
    locked.set_output_gate(i % locked.num_outputs(), g);
  }
  const double few = deobfuscation_cnf_ratio(locked, 2, 9);
  const double many = deobfuscation_cnf_ratio(locked, 48, 9);
  EXPECT_GT(many, few);
}

TEST(IoConstraintCone, MatchesLegacyKeySpace) {
  // The soundness claim behind cone-restricted DIP constraints: after the
  // same sequence of (pattern, response) pairs, the legacy full re-encode
  // and the cone encode (fixed region swept by simulation, dead residue
  // pruned) admit exactly the same keys. Fuzzed by key-membership queries.
  using netlist::Word;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Netlist original = netlist::make_circuit("c432", 40 + seed);
    core::FullLockConfig config = core::FullLockConfig::with_plrs({4});
    config.seed = seed;
    const core::LockedCircuit locked = core::full_lock(original, config);
    const Netlist& net = locked.netlist;
    if (net.is_cyclic()) continue;
    netlist::KeyConePartition partition(net);
    const attacks::Oracle oracle(original);
    std::mt19937_64 rng(seed * 1234567);

    sat::Solver legacy_solver, cone_solver;
    std::vector<sat::Var> legacy_keys(net.num_keys()), cone_keys(net.num_keys());
    for (auto& v : legacy_keys) v = legacy_solver.new_var();
    for (auto& v : cone_keys) v = cone_solver.new_var();
    const std::span<const GateId> taps = partition.taps();

    for (int d = 0; d < 5; ++d) {
      std::vector<bool> pattern(net.num_inputs());
      for (std::size_t i = 0; i < pattern.size(); ++i) pattern[i] = rng() & 1;
      const std::vector<bool> response = oracle.query(pattern);
      add_io_constraint(net, legacy_solver, {&legacy_keys, 1}, pattern,
                        response);

      // Cone path: sweep the fixed region once, hand the tap values to the
      // encoder as frontier constants.
      const std::vector<Word> tap_values =
          netlist::simulate(partition.fixed_region(),
                            netlist::broadcast(pattern), {}, 1)
              .outputs;
      std::vector<NetLit> frontier(net.num_gates(), NetLit::constant(false));
      for (std::size_t t = 0; t < taps.size(); ++t) {
        frontier[taps[t]] = NetLit::constant((tap_values[t] & 1) != 0);
      }
      add_io_constraint_cone(net, cone_solver, {&cone_keys, 1},
                             partition.cone_topo(), frontier, response);
    }

    // The correct key plus random probes must be admitted or rejected
    // identically by both encodings.
    for (int trial = 0; trial < 120; ++trial) {
      std::vector<bool> key(net.num_keys());
      if (trial == 0) {
        key = locked.correct_key;
      } else {
        for (std::size_t i = 0; i < key.size(); ++i) key[i] = rng() & 1;
      }
      std::vector<sat::Lit> legacy_assume, cone_assume;
      for (std::size_t i = 0; i < key.size(); ++i) {
        legacy_assume.push_back(sat::Lit(legacy_keys[i], !key[i]));
        cone_assume.push_back(sat::Lit(cone_keys[i], !key[i]));
      }
      const sat::LBool expected = legacy_solver.solve(legacy_assume);
      EXPECT_EQ(cone_solver.solve(cone_assume), expected)
          << "seed " << seed << " trial " << trial;
      if (trial == 0) {
        EXPECT_EQ(expected, sat::LBool::kTrue);
      }
    }
  }
}

TEST(IoConstraintCone, RejectsLiteralFrontierValues) {
  // The projection treats every variable below the solver's size as a
  // frozen key; a frontier literal would be neither, so it is refused
  // before anything reaches the solver.
  const Netlist original = netlist::make_circuit("c432", 1);
  const core::LockedCircuit locked = lock::lock_with(
      "rll", original, lock::make_options(2, {}, "keys=16"));
  const Netlist& net = locked.netlist;
  netlist::KeyConePartition partition(net);
  sat::Solver solver;
  std::vector<sat::Var> keys(net.num_keys());
  for (auto& v : keys) v = solver.new_var();
  const sat::Var x = solver.new_var();
  const std::vector<NetLit> frontier(net.num_gates(),
                                     NetLit::of(sat::pos(x)));
  const std::vector<bool> response(net.num_outputs(), false);
  EXPECT_THROW(add_io_constraint_cone(net, solver, {&keys, 1},
                                      partition.cone_topo(), frontier,
                                      response),
               std::invalid_argument);
  EXPECT_EQ(solver.num_vars(), static_cast<int>(keys.size()) + 1);
  EXPECT_EQ(solver.num_clauses(), 0u);
}

// The unprojected commit of one DIP copy: every Tseytin variable of the
// encode reaches the solver, outputs pinned by unit clauses.
void add_raw_io_constraint(const Netlist& net, sat::Solver& solver,
                           const EncodeOptions& options,
                           const std::vector<bool>& response) {
  SolverSink sink(solver);
  const EncodedCircuit copy = encode(net, sink, options);
  for (std::size_t i = 0; i < response.size(); ++i) {
    const NetLit o = copy.outputs[i];
    if (o.is_const()) {
      if (o.const_value() != response[i]) solver.add_clause({});
      continue;
    }
    solver.add_clause({response[i] ? o.lit : ~o.lit});
  }
}

TEST(IoConstraintProjection, AdmitsExactlyTheRawKeySpace) {
  // add_io_constraint[_cone] commit each DIP copy with its own Tseytin
  // variables eliminated. Soundness: after the same DIPs, the projected and
  // the raw commits admit exactly the same keys — on point-function,
  // routing and XOR locks, on the full and the cone path — probed with the
  // correct key, each of its one-bit flips and 120 random keys.
  const Netlist original = netlist::make_circuit("c432", 1);
  const attacks::Oracle oracle(original);
  const std::pair<const char*, const char*> locks[] = {
      {"sarlock", "keys=8"},
      {"antisat", "inputs=6"},
      {"full-lock", "sizes=8"},
      {"interlock", "sizes=8"},
      // XOR key gates next to output ports: a pinned output fixes a key bit,
      // which the projection must commit as a unit on the key variable.
      {"rll", "keys=16"}};
  for (const auto& [scheme, params] : locks) {
    const core::LockedCircuit locked =
        lock::lock_with(scheme, original, lock::make_options(2, {}, params));
    const Netlist& net = locked.netlist;
    ASSERT_FALSE(net.is_cyclic()) << scheme;
    netlist::KeyConePartition partition(net);
    const std::span<const GateId> taps = partition.taps();
    for (const bool cone : {false, true}) {
      const std::string label =
          std::string(scheme) + (cone ? " cone" : " full");
      std::mt19937_64 rng(cone ? 11 : 7);
      sat::Solver raw_solver, projected_solver;
      std::vector<sat::Var> raw_keys(net.num_keys());
      std::vector<sat::Var> projected_keys(net.num_keys());
      for (auto& v : raw_keys) v = raw_solver.new_var();
      for (auto& v : projected_keys) v = projected_solver.new_var();

      for (int d = 0; d < 6; ++d) {
        std::vector<bool> pattern(net.num_inputs());
        for (std::size_t i = 0; i < pattern.size(); ++i) {
          pattern[i] = (rng() & 1) != 0;
        }
        const std::vector<bool> response = oracle.query(pattern);
        EncodeOptions raw;
        raw.shared_key_vars = raw_keys;
        std::vector<NetLit> frontier;
        if (cone) {
          const std::vector<netlist::Word> tap_values =
              netlist::simulate(partition.fixed_region(),
                                netlist::broadcast(pattern), {}, 1)
                  .outputs;
          frontier.assign(net.num_gates(), NetLit::constant(false));
          for (std::size_t t = 0; t < taps.size(); ++t) {
            frontier[taps[t]] = NetLit::constant((tap_values[t] & 1) != 0);
          }
          add_io_constraint_cone(net, projected_solver, {&projected_keys, 1},
                                 partition.cone_topo(), frontier, response);
          raw.cone_topo = partition.cone_topo();
          raw.frontier_lits = frontier;
          raw.prune_dead_logic = true;
        } else {
          add_io_constraint(net, projected_solver, {&projected_keys, 1},
                            pattern, response);
          raw.fixed_inputs = pattern;
        }
        add_raw_io_constraint(net, raw_solver, raw, response);
      }
      // The projection must actually have removed variables.
      EXPECT_LT(projected_solver.num_vars(), raw_solver.num_vars()) << label;

      std::vector<std::vector<bool>> probes = {locked.correct_key};
      for (std::size_t i = 0; i < net.num_keys(); ++i) {
        probes.push_back(locked.correct_key);
        probes.back()[i] = !probes.back()[i];
      }
      for (int r = 0; r < 120; ++r) {
        std::vector<bool> key(net.num_keys());
        for (std::size_t i = 0; i < key.size(); ++i) key[i] = (rng() & 1) != 0;
        probes.push_back(std::move(key));
      }
      int rejected = 0;
      for (std::size_t p = 0; p < probes.size(); ++p) {
        std::vector<sat::Lit> raw_assume, projected_assume;
        for (std::size_t i = 0; i < net.num_keys(); ++i) {
          raw_assume.push_back(sat::Lit(raw_keys[i], !probes[p][i]));
          projected_assume.push_back(
              sat::Lit(projected_keys[i], !probes[p][i]));
        }
        const sat::LBool expected = raw_solver.solve(raw_assume);
        EXPECT_EQ(projected_solver.solve(projected_assume), expected)
            << label << " probe " << p;
        if (p == 0) {
          EXPECT_EQ(expected, sat::LBool::kTrue) << label;
        }
        if (expected == sat::LBool::kFalse) ++rejected;
      }
      // Routing and XOR locks reject most probes after a few DIPs, so the
      // comparison covers both answers.
      if (std::string(scheme) != "sarlock" &&
          std::string(scheme) != "antisat") {
        EXPECT_GT(rejected, 0) << label;
      }
    }
  }
}

// A SolverIface that only logs the calls a DIP-constraint commit makes:
// new_var and add_clause, in order. It never solves.
class RecordingSolver final : public sat::SolverIface {
 public:
  std::vector<std::string> log;

  sat::Var new_var() override {
    log.push_back("var " + std::to_string(num_vars_));
    return num_vars_++;
  }
  int num_vars() const override { return num_vars_; }
  bool add_clause(sat::Clause clause) override {
    std::string entry = "clause";
    for (const sat::Lit l : clause) entry += " " + std::to_string(l.index());
    log.push_back(std::move(entry));
    ++num_clauses_;
    return true;
  }
  using sat::SolverIface::add_clause;
  sat::LBool solve(std::span<const sat::Lit>) override {
    return sat::LBool::kUndef;
  }
  bool value_of(sat::Var) const override { return false; }
  std::vector<bool> model() const override { return {}; }
  void set_phase(sat::Var, bool) override {}
  void set_conflict_budget(std::uint64_t) override {}
  void set_deadline(
      std::optional<std::chrono::steady_clock::time_point>) override {}
  void set_interrupt(const std::atomic<bool>*) override {}
  bool last_solve_interrupted() const override { return false; }
  sat::StopReason last_stop_reason() const override {
    return sat::StopReason::kNone;
  }
  const sat::SolverStats& stats() const override { return stats_; }
  sat::CounterSnapshot counters() const override { return {}; }
  std::size_t num_clauses() const override { return num_clauses_; }
  std::size_t num_learnts() const override { return 0; }
  std::size_t memory_bytes() const override { return 0; }

 private:
  int num_vars_ = 0;
  std::size_t num_clauses_ = 0;
  sat::SolverStats stats_;
};

// Commits 6 DIP constraints of `locked` to `num_copies` key copies, once
// with every copy in one call and once with one call per copy, and expects
// the two solvers to have seen exactly the same new_var/add_clause stream.
// Odd DIPs pin a response with one output flipped, so constraints that
// empty the key space are covered too.
void expect_shared_projection_matches_per_copy(
    const Netlist& original, const core::LockedCircuit& locked,
    std::size_t num_copies, bool cone, const std::string& label) {
  const Netlist& net = locked.netlist;
  const attacks::Oracle oracle(original);
  std::optional<netlist::KeyConePartition> partition;
  if (cone) partition.emplace(net);
  RecordingSolver shared, per_copy;
  std::vector<std::vector<sat::Var>> copies(num_copies);
  for (std::vector<sat::Var>& keys : copies) {
    for (std::size_t i = 0; i < net.num_keys(); ++i) {
      keys.push_back(shared.new_var());
      per_copy.new_var();
    }
  }
  std::mt19937_64 rng(17);
  for (int d = 0; d < 6; ++d) {
    std::vector<bool> pattern(net.num_inputs());
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = (rng() & 1) != 0;
    }
    std::vector<bool> response = oracle.query(pattern);
    if (d % 2 == 1) {
      const std::size_t o = rng() % response.size();
      response[o] = !response[o];
    }
    const auto commit = [&](sat::SolverIface& solver,
                            std::span<const std::vector<sat::Var>> keys) {
      if (!cone) {
        add_io_constraint(net, solver, keys, pattern, response);
        return;
      }
      const std::vector<netlist::Word> tap_values =
          netlist::simulate(partition->fixed_region(),
                            netlist::broadcast(pattern), {}, 1)
              .outputs;
      std::vector<NetLit> frontier(net.num_gates(), NetLit::constant(false));
      for (std::size_t t = 0; t < partition->taps().size(); ++t) {
        frontier[partition->taps()[t]] =
            NetLit::constant((tap_values[t] & 1) != 0);
      }
      add_io_constraint_cone(net, solver, keys, partition->cone_topo(),
                             frontier, response);
    };
    commit(shared, copies);
    for (const std::vector<sat::Var>& keys : copies) {
      commit(per_copy, {&keys, 1});
    }
  }
  EXPECT_GT(shared.num_clauses(), 0u) << label;
  EXPECT_EQ(shared.log, per_copy.log) << label;
}

TEST(IoConstraintProjection, OneCallForAllCopiesMatchesOneCallPerCopy) {
  // add_io_constraint[_cone] project a DIP constraint once and commit it to
  // every key copy. The solver must see the stream one call per copy makes
  // (the same variables, clauses and order), so the search is unchanged:
  // on the cone path of four acyclic locks, on the full-circuit path of a
  // cyclic Full-Lock, and with Double-DIP's four key copies.
  const Netlist original = netlist::make_circuit("c432", 1);
  const std::pair<const char*, const char*> acyclic[] = {
      {"sarlock", "keys=8"},
      {"full-lock", "sizes=8"},
      {"interlock", "sizes=8"},
      {"antisat", "inputs=6"}};
  for (const auto& [scheme, params] : acyclic) {
    const core::LockedCircuit locked =
        lock::lock_with(scheme, original, lock::make_options(2, {}, params));
    ASSERT_FALSE(locked.netlist.is_cyclic()) << scheme;
    expect_shared_projection_matches_per_copy(original, locked, 2, true,
                                              std::string(scheme) + " cone");
    expect_shared_projection_matches_per_copy(original, locked, 2, false,
                                              std::string(scheme) + " full");
  }
  const core::LockedCircuit cyclic = lock::lock_with(
      "full-lock", original, lock::make_options(2, {}, "sizes=4,cycle=allow"));
  ASSERT_TRUE(cyclic.netlist.is_cyclic());
  expect_shared_projection_matches_per_copy(original, cyclic, 2, false,
                                            "cyclic full-lock");
  expect_shared_projection_matches_per_copy(original, cyclic, 4, false,
                                            "cyclic full-lock, 4 copies");
  const core::LockedCircuit sarlock = lock::lock_with(
      "sarlock", original, lock::make_options(2, {}, "keys=8"));
  expect_shared_projection_matches_per_copy(original, sarlock, 4, true,
                                            "sarlock cone, 4 copies");
}

}  // namespace
}  // namespace fl::cnf

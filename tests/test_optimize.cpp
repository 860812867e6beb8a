// Netlist optimization: identities, hashing, equivalence preservation, and
// the resynthesis-resistance property of locked circuits. Equivalence is
// checked by the two-copy reference miter: cnf::check_equivalence runs
// optimize() itself.
#include <gtest/gtest.h>

#include <random>

#include "core/full_lock.h"
#include "core/verify.h"
#include "netlist/generator.h"
#include "netlist/optimize.h"
#include "netlist/profiles.h"
#include "netlist/simulator.h"

#include "miter_reference.h"

namespace fl::netlist {
namespace {

TEST(Optimize, ConstantPropagation) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId c1 = n.add_const(true);
  const GateId c0 = n.add_const(false);
  const GateId g1 = n.add_gate(GateType::kAnd, {a, c1});       // = a
  const GateId g2 = n.add_gate(GateType::kOr, {g1, c0});       // = a
  const GateId g3 = n.add_gate(GateType::kXor, {g2, c1});      // = ~a
  const GateId g4 = n.add_gate(GateType::kMux, {c1, a, g3});   // = ~a
  n.mark_output(g4, "y");
  OptimizeStats stats;
  const Netlist opt = optimize(n, &stats);
  // Whole cone folds to a single inverter.
  EXPECT_EQ(opt.num_logic_gates(), 1u);
  EXPECT_GT(stats.constants_folded, 0u);
  EXPECT_TRUE(cnf::reference_equivalent(n, {}, opt, {}));
}

TEST(Optimize, AlgebraicIdentities) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId na = n.add_gate(GateType::kNot, {a});
  const GateId g1 = n.add_gate(GateType::kAnd, {a, na});   // = 0
  const GateId g2 = n.add_gate(GateType::kXor, {b, b});    // = 0
  const GateId g3 = n.add_gate(GateType::kOr, {g1, g2});   // = 0
  const GateId g4 = n.add_gate(GateType::kOr, {g3, a});    // = a
  n.mark_output(g4, "y");
  const Netlist opt = optimize(n);
  EXPECT_EQ(opt.num_logic_gates(), 0u);  // output is just input a
  EXPECT_TRUE(cnf::reference_equivalent(n, {}, opt, {}));
}

TEST(Optimize, DoubleNegationAndBufferSweep) {
  Netlist n;
  const GateId a = n.add_input("a");
  GateId cur = a;
  for (int i = 0; i < 6; ++i) cur = n.add_gate(GateType::kNot, {cur});
  cur = n.add_gate(GateType::kBuf, {cur});
  n.mark_output(cur, "y");  // even # of NOTs + BUF == identity
  const Netlist opt = optimize(n);
  EXPECT_EQ(opt.num_logic_gates(), 0u);
}

TEST(Optimize, StructuralHashingMergesDuplicates) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId g1 = n.add_gate(GateType::kAnd, {a, b});
  const GateId g2 = n.add_gate(GateType::kAnd, {b, a});  // commuted dup
  const GateId g3 = n.add_gate(GateType::kXor, {g1, g2});  // = 0
  const GateId g4 = n.add_gate(GateType::kOr, {g3, g1});
  n.mark_output(g4, "y");
  OptimizeStats stats;
  const Netlist opt = optimize(n, &stats);
  EXPECT_GT(stats.subexpressions_merged + stats.identities_applied, 0u);
  EXPECT_EQ(opt.num_logic_gates(), 1u);  // just AND(a, b)
  EXPECT_TRUE(cnf::reference_equivalent(n, {}, opt, {}));
}

TEST(Optimize, MuxIdentities) {
  Netlist n;
  const GateId s = n.add_input("s");
  const GateId a = n.add_input("a");
  const GateId na = n.add_gate(GateType::kNot, {a});
  const GateId m1 = n.add_gate(GateType::kMux, {s, a, a});    // = a
  const GateId m2 = n.add_gate(GateType::kMux, {s, a, na});   // = s ^ ~a...
  const GateId g = n.add_gate(GateType::kAnd, {m1, m2});
  n.mark_output(g, "y");
  const Netlist opt = optimize(n);
  EXPECT_TRUE(cnf::reference_equivalent(n, {}, opt, {}));
  EXPECT_LT(opt.num_logic_gates(), n.num_logic_gates());
}

TEST(Optimize, RandomCircuitsStayEquivalent) {
  std::mt19937_64 seeds(61);
  for (int trial = 0; trial < 8; ++trial) {
    GeneratorConfig config;
    config.num_inputs = 10;
    config.num_outputs = 6;
    config.num_gates = 150;
    config.seed = seeds();
    const Netlist n = generate_circuit(config);
    OptimizeStats stats;
    const Netlist opt = optimize(n, &stats);
    ASSERT_TRUE(cnf::reference_equivalent(n, {}, opt, {}))
        << "trial " << trial;
    EXPECT_LE(stats.gates_after, stats.gates_before);
  }
}

TEST(Optimize, PreservesKeyInterface) {
  const Netlist original = make_circuit("c432", 71);
  const core::LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({8}));
  const Netlist opt = optimize(locked.netlist);
  ASSERT_EQ(opt.num_keys(), locked.netlist.num_keys());
  // Same keys, same order, same function under the correct key.
  EXPECT_TRUE(
      cnf::reference_equivalent(original, {}, opt, locked.correct_key));
}

// The resynthesis-attack angle: optimizing a locked netlist (without the
// key) must not strip the key dependence — wrong keys still corrupt.
TEST(Optimize, ResynthesisDoesNotUnlock) {
  const Netlist original = make_circuit("c880", 72);
  const core::LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({16}));
  const Netlist opt = optimize(locked.netlist);
  core::LockedCircuit relocked;
  relocked.netlist = opt;
  relocked.correct_key = locked.correct_key;
  relocked.scheme = locked.scheme;
  const core::CorruptionStats corruption =
      core::output_corruption(original, relocked, 16, 4, 7);
  EXPECT_GT(corruption.mean_error_rate, 0.05);
}

TEST(Optimize, RejectsCyclic) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId g = n.add_gate(GateType::kOr, {a, a});
  n.set_fanin(g, {a, g});
  n.mark_output(g);
  EXPECT_THROW(optimize(n), std::invalid_argument);
}

}  // namespace
}  // namespace fl::netlist

// Bit-parallel simulation: per-gate semantics, acyclic sweeps, cyclic
// relaxation, convergence masks.
#include <gtest/gtest.h>

#include <random>

#include "netlist/profiles.h"
#include "netlist/simulator.h"

namespace fl::netlist {
namespace {

TEST(EvalGate, TwoInputTruthTables) {
  const Word a = 0b0011;  // pattern: a = 0,0,1,1 over 4 slots? bits LSB-first
  const Word b = 0b0101;
  EXPECT_EQ(eval_gate(GateType::kAnd, std::vector<Word>{a, b}) & 0xF,
            Word{0b0001});
  EXPECT_EQ(eval_gate(GateType::kNand, std::vector<Word>{a, b}) & 0xF,
            Word{0b1110});
  EXPECT_EQ(eval_gate(GateType::kOr, std::vector<Word>{a, b}) & 0xF,
            Word{0b0111});
  EXPECT_EQ(eval_gate(GateType::kNor, std::vector<Word>{a, b}) & 0xF,
            Word{0b1000});
  EXPECT_EQ(eval_gate(GateType::kXor, std::vector<Word>{a, b}) & 0xF,
            Word{0b0110});
  EXPECT_EQ(eval_gate(GateType::kXnor, std::vector<Word>{a, b}) & 0xF,
            Word{0b1001});
  EXPECT_EQ(eval_gate(GateType::kBuf, std::vector<Word>{a}) & 0xF, a);
  EXPECT_EQ(eval_gate(GateType::kNot, std::vector<Word>{a}) & 0xF,
            Word{0b1100});
}

TEST(EvalGate, MuxSelectsSecondInputWhenSelHigh) {
  const Word sel = 0b10;
  const Word in_a = 0b01;
  const Word in_b = 0b10;
  // bit0: sel=0 -> a(bit0)=1; bit1: sel=1 -> b(bit1)=1.
  EXPECT_EQ(eval_gate(GateType::kMux, std::vector<Word>{sel, in_a, in_b}) & 3,
            Word{0b11});
}

TEST(EvalGate, NaryGates) {
  const std::vector<Word> fan{0b1110, 0b1101, 0b1011};
  EXPECT_EQ(eval_gate(GateType::kAnd, fan) & 0xF, Word{0b1000});
  EXPECT_EQ(eval_gate(GateType::kOr, fan) & 0xF, Word{0b1111});
  EXPECT_EQ(eval_gate(GateType::kXor, fan) & 0xF,
            Word{0b1110 ^ 0b1101 ^ 0b1011} & 0xF);
}

TEST(Simulator, C17KnownVectors) {
  const Netlist c17 = make_c17();
  // All-zero input: 10=NAND(0,0)=1, 11=1, 16=NAND(0,1)=1, 19=1,
  // 22=NAND(1,1)=0, 23=0.
  const std::vector<Word> zeros(5, 0);
  const auto out0 = simulate(c17, zeros, {}, 1).outputs;
  EXPECT_EQ(out0[0] & 1, 0u);
  EXPECT_EQ(out0[1] & 1, 0u);
  // All-one input: 10=0, 11=0, 16=NAND(1,0)=1, 19=NAND(0,1)=1,
  // 22=NAND(0,1)=1, 23=NAND(1,1)=0.
  const std::vector<Word> ones(5, ~Word{0});
  const auto out1 = simulate(c17, ones, {}, 1).outputs;
  EXPECT_EQ(out1[0] & 1, 1u);
  EXPECT_EQ(out1[1] & 1, 0u);
}

TEST(Simulator, RejectsCyclicNetlist) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId g1 = n.add_gate(GateType::kAnd, {a, a});
  const GateId g2 = n.add_gate(GateType::kOr, {g1, a});
  n.replace_fanin_of(g1, a, g2);
  n.mark_output(g2);
  EXPECT_THROW(Simulator{n}, std::invalid_argument);
}

TEST(Simulator, StimulusWidthChecked) {
  const Netlist c17 = make_c17();
  const std::vector<Word> wrong(3, 0);
  EXPECT_THROW(simulate(c17, wrong, {}, 1), std::invalid_argument);
  EXPECT_THROW(simulate(c17, std::vector<Word>(5), std::vector<Word>(1), 1),
               std::invalid_argument);
}

TEST(SimulateCyclic, MatchesAcyclicOnDag) {
  // On an acyclic netlist, relaxation must agree with the topological sweep.
  const Netlist c17 = make_c17();
  const Simulator sim(c17);
  Simulator::Scratch scratch;
  std::mt19937_64 rng(11);
  for (int round = 0; round < 8; ++round) {
    std::vector<Word> in(5);
    for (Word& w : in) w = rng();
    std::vector<Word> expected(c17.num_outputs());
    sim.run_batch(in, {}, 1, scratch, expected);
    const auto got = simulate_cyclic(c17, in, {});
    EXPECT_EQ(got.converged, ~Word{0});
    for (std::size_t o = 0; o < expected.size(); ++o) {
      EXPECT_EQ(expected[o], got.outputs[o]);
    }
  }
}

TEST(SimulateCyclic, LatchingCycleConverges) {
  // OR feedback loop: g = OR(a, g). From init 0 it settles at g = a.
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId g = n.add_gate(GateType::kOr, {a, a});
  n.replace_fanin_of(g, a, g);  // only the second pin
  // Now g = OR(a, g)? replace_fanin_of replaced *all* pins; rebuild:
  n.set_fanin(g, {a, g});
  n.mark_output(g);
  const std::vector<Word> in{0b10};
  const auto result = simulate_cyclic(n, in, {});
  EXPECT_EQ(result.converged, ~Word{0});
  EXPECT_EQ(result.outputs[0] & 3, Word{0b10});
}

TEST(SimulateCyclic, OscillatingRingFlagsNonConvergence) {
  // g = NOT(g): classic oscillator; must be flagged, not looped forever.
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId g = n.add_gate(GateType::kNot, {a});
  n.set_fanin(g, {g});
  n.mark_output(g);
  const std::vector<Word> in{0};
  const auto result = simulate_cyclic(n, in, {});
  EXPECT_EQ(result.converged, Word{0});
}

TEST(EvalOnce, SinglePatternMatchesBitParallel) {
  // eval_once runs the batch engine on an acyclic netlist; the reference is
  // the scalar relaxation kernel.
  const Netlist c17 = make_c17();
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<bool> in(5);
    for (int i = 0; i < 5; ++i) in[i] = (rng() & 1) != 0;
    const auto bits = eval_once(c17, in, {});
    const auto words = simulate_cyclic(c17, broadcast(in), {}).outputs;
    for (std::size_t o = 0; o < bits.size(); ++o) {
      EXPECT_EQ(bits[o], (words[o] & 1) != 0);
    }
  }
}

TEST(Simulate, PicksTheEngineThatFitsTheNetlist) {
  // Acyclic: the batch engine, every lane settles. Cyclic (L = XOR(a, L)):
  // relaxation word by word, and the lanes with a=1 oscillate.
  const Netlist c17 = make_c17();
  std::mt19937_64 rng(3);
  const std::size_t n_words = 3;
  std::vector<Word> in(5 * n_words);
  for (Word& w : in) w = rng();
  const SimResult dag = simulate(c17, in, {}, n_words);
  EXPECT_EQ(dag.converged, std::vector<Word>(n_words, ~Word{0}));
  for (std::size_t w = 0; w < n_words; ++w) {
    std::vector<Word> column(5);
    for (std::size_t i = 0; i < 5; ++i) column[i] = in[i * n_words + w];
    const CyclicSimResult ref = simulate_cyclic(c17, column, {});
    for (std::size_t o = 0; o < ref.outputs.size(); ++o) {
      EXPECT_EQ(dag.outputs[o * n_words + w], ref.outputs[o]);
    }
  }

  Netlist ring;
  const GateId a = ring.add_input("a");
  const GateId loop = ring.add_gate(GateType::kXor, {a, a});
  ring.set_fanin(loop, {a, loop});
  ring.mark_output(loop, "y");
  const std::vector<Word> lanes{0x00FF, 0xF000};
  const SimResult cyc = simulate(ring, lanes, {}, 2);
  EXPECT_EQ(cyc.converged, (std::vector<Word>{~Word{0x00FF}, ~Word{0xF000}}));
}

}  // namespace
}  // namespace fl::netlist

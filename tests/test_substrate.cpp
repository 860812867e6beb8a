// Million-gate substrate: arena netlist caches, wide SIMD simulation,
// structural-hashing rewrites, and exact oracle query accounting.
#include <gtest/gtest.h>

#include <random>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "core/full_lock.h"
#include "netlist/generator.h"
#include "netlist/optimize.h"
#include "netlist/profiles.h"
#include "netlist/simulator.h"

namespace fl::netlist {
namespace {

using attacks::Oracle;
using Word = netlist::Word;

Netlist random_circuit(std::size_t gates, std::uint64_t seed,
                       std::size_t inputs = 12, std::size_t outputs = 6) {
  GeneratorConfig config;
  config.num_inputs = inputs;
  config.num_outputs = outputs;
  config.num_gates = gates;
  config.seed = seed;
  return generate_circuit(config);
}

// --- arena + cached graph queries ----------------------------------------

TEST(Arena, GenerationBumpsOnEveryEdit) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  std::uint64_t gen = n.generation();
  const GateId g = n.add_gate(GateType::kAnd, {a, b});
  EXPECT_GT(n.generation(), gen);
  gen = n.generation();
  n.replace_fanin_of(g, b, a);
  EXPECT_GT(n.generation(), gen);
  gen = n.generation();
  n.set_fanin(g, {a, b});
  EXPECT_GT(n.generation(), gen);
  gen = n.generation();
  n.retype(g, GateType::kOr);
  EXPECT_GT(n.generation(), gen);
}

TEST(Arena, CachedFanoutReflectsEdits) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId g1 = n.add_gate(GateType::kAnd, {a, b});
  const GateId g2 = n.add_gate(GateType::kOr, {a, g1});
  n.mark_output(g2, "y");

  auto row = n.fanout(a);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0], g1);
  EXPECT_EQ(row[1], g2);

  // Rewire g2 away from a; the cache must rebuild, not serve stale rows.
  n.replace_fanin_of(g2, a, b);
  row = n.fanout(a);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0], g1);
  EXPECT_EQ(n.fanout(b).size(), 2u);
}

TEST(Arena, FanoutRowsAreDeduplicated) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId g = n.add_gate(GateType::kAnd, {a, a});
  (void)g;
  ASSERT_EQ(n.fanout(a).size(), 1u);
}

TEST(Arena, CycleDetectionTracksSetFanin) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId g1 = n.add_gate(GateType::kAnd, {a, a});
  const GateId g2 = n.add_gate(GateType::kNot, {g1});
  n.mark_output(g2, "y");
  EXPECT_FALSE(n.is_cyclic());
  EXPECT_EQ(n.topo_span().size(), n.num_gates());

  n.set_fanin(g1, {a, g2});  // back edge g2 -> g1
  EXPECT_TRUE(n.is_cyclic());
  EXPECT_TRUE(n.topo_span().empty());
  EXPECT_FALSE(n.levels().has_value());

  n.set_fanin(g1, {a, a});
  EXPECT_FALSE(n.is_cyclic());
}

TEST(Arena, GateSnapshotSurvivesArenaGrowth) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId g = n.add_gate(GateType::kAnd, {a, b});
  const Gate snapshot = n.gate(g);  // owning copy, not a view
  // Force arena reallocation.
  GateId prev = g;
  for (int i = 0; i < 10000; ++i) {
    prev = n.add_gate(GateType::kNot, {prev});
  }
  EXPECT_EQ(snapshot.type, GateType::kAnd);
  ASSERT_EQ(snapshot.fanin.size(), 2u);
  EXPECT_EQ(snapshot.fanin[0], a);
  EXPECT_EQ(snapshot.fanin[1], b);
}

TEST(Arena, GrowingSetFaninRelocatesSegment) {
  Netlist n;
  std::vector<GateId> in;
  for (int i = 0; i < 6; ++i) in.push_back(n.add_input("i" + std::to_string(i)));
  const GateId g = n.add_gate(GateType::kAnd, {in[0], in[1]});
  const GateId h = n.add_gate(GateType::kOr, {in[2], in[3]});
  n.set_fanin(g, in);  // grows 2 -> 6, relocates
  ASSERT_EQ(n.fanin_size(g), 6u);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(n.fanin(g)[i], in[i]);
  // The neighbour's fanin must be untouched by the relocation.
  ASSERT_EQ(n.fanin_size(h), 2u);
  EXPECT_EQ(n.fanin(h)[0], in[2]);
  n.validate();
}

// --- wide SIMD simulation -------------------------------------------------

// run_batch must agree with the scalar relaxation kernel (simulate_cyclic,
// word by word) on random circuits, including a partial final block
// (n_words not a multiple of kSimdWords).
TEST(WideSim, MatchesLegacyRunOnRandomCircuits) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const Netlist net = random_circuit(400, seed);
    const Simulator sim(net);
    const std::size_t n_in = net.num_inputs();
    const std::size_t n_out = net.num_outputs();
    const std::size_t n_words = 13;  // 1 full 8-word block + 5-word tail
    std::mt19937_64 rng(seed * 77 + 1);
    std::vector<Word> inputs(n_in * n_words);
    for (Word& w : inputs) w = rng();

    Simulator::Scratch scratch;
    std::vector<Word> wide(n_out * n_words);
    sim.run_batch(inputs, {}, n_words, scratch, wide);

    std::vector<Word> in_w(n_in);
    for (std::size_t w = 0; w < n_words; ++w) {
      for (std::size_t i = 0; i < n_in; ++i) in_w[i] = inputs[i * n_words + w];
      const std::vector<Word> out = simulate_cyclic(net, in_w, {}).outputs;
      for (std::size_t o = 0; o < n_out; ++o) {
        EXPECT_EQ(wide[o * n_words + w], out[o])
            << "seed " << seed << " word " << w << " output " << o;
      }
    }
  }
}

TEST(WideSim, HandlesArityAboveEight) {
  Netlist n;
  std::vector<GateId> in;
  for (int i = 0; i < 12; ++i) in.push_back(n.add_input("i" + std::to_string(i)));
  n.mark_output(n.add_gate(GateType::kAnd, in), "all");
  n.mark_output(n.add_gate(GateType::kXor, in), "parity");
  const Simulator sim(n);
  std::mt19937_64 rng(99);
  const std::size_t n_words = 3;
  std::vector<Word> inputs(in.size() * n_words);
  for (Word& w : inputs) w = rng();
  Simulator::Scratch scratch;
  std::vector<Word> wide(2 * n_words);
  sim.run_batch(inputs, {}, n_words, scratch, wide);
  std::vector<Word> in_w(in.size());
  for (std::size_t w = 0; w < n_words; ++w) {
    for (std::size_t i = 0; i < in.size(); ++i) in_w[i] = inputs[i * n_words + w];
    const std::vector<Word> out = simulate_cyclic(n, in_w, {}).outputs;
    EXPECT_EQ(wide[0 * n_words + w], out[0]);
    EXPECT_EQ(wide[1 * n_words + w], out[1]);
  }
}

TEST(WideSim, BroadcastKeysMatchPerWordKeys) {
  const Netlist original = random_circuit(300, 5);
  core::FullLockConfig config = core::FullLockConfig::with_plrs(
      {8}, core::ClnTopology::kShuffleBlocking, core::CycleMode::kAvoid,
      /*twist_luts=*/false, /*negate_probability=*/0.5);
  config.seed = 3;
  const core::LockedCircuit locked = core::full_lock(original, config);
  const Simulator sim(locked.netlist);
  const std::size_t n_in = locked.netlist.num_inputs();
  const std::size_t n_key = locked.netlist.num_keys();
  const std::size_t n_out = locked.netlist.num_outputs();
  const std::size_t n_words = 9;
  std::mt19937_64 rng(17);
  std::vector<Word> inputs(n_in * n_words);
  for (Word& w : inputs) w = rng();
  const std::vector<Word> key_one = broadcast(locked.correct_key);
  std::vector<Word> key_wide(n_key * n_words);
  for (std::size_t k = 0; k < n_key; ++k) {
    for (std::size_t w = 0; w < n_words; ++w) {
      key_wide[k * n_words + w] = key_one[k];
    }
  }
  Simulator::Scratch scratch;
  std::vector<Word> out_bcast(n_out * n_words), out_wide(n_out * n_words);
  sim.run_batch(inputs, key_one, n_words, scratch, out_bcast);
  sim.run_batch(inputs, key_wide, n_words, scratch, out_wide);
  EXPECT_EQ(out_bcast, out_wide);
}

TEST(WideSim, RejectsMismatchedSizes) {
  const Netlist net = random_circuit(50, 4);
  const Simulator sim(net);
  Simulator::Scratch scratch;
  std::vector<Word> inputs(net.num_inputs() * 2);
  std::vector<Word> outputs(net.num_outputs() * 2);
  EXPECT_THROW(sim.run_batch(inputs, {}, 3, scratch, outputs),
               std::invalid_argument);
  EXPECT_THROW(
      sim.run_batch(inputs, std::vector<Word>(1), 2, scratch, outputs),
      std::invalid_argument);
  std::vector<Word> short_out(net.num_outputs());
  EXPECT_THROW(sim.run_batch(inputs, {}, 2, scratch, short_out),
               std::invalid_argument);
}

// --- cyclic convergence-mask semantics ------------------------------------

// L = XOR(a, L): bits with a=0 hold their initial value (converged), bits
// with a=1 oscillate forever (non-converged). The mask must be exactly ~a.
TEST(CyclicSim, ConvergenceMaskIsPerPattern) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId loop = n.add_gate(GateType::kAnd, {a, a});
  n.set_fanin(loop, {a, loop});
  n.retype(loop, GateType::kXor);
  n.mark_output(loop, "y");
  ASSERT_TRUE(n.is_cyclic());

  const Word pattern = 0xF0F0A5A5DEADBEEFull;
  const CyclicSimResult r = simulate_cyclic(n, std::vector<Word>{pattern}, {});
  EXPECT_EQ(r.converged, ~pattern);
  // Converged lanes held the all-zero initial state.
  EXPECT_EQ(r.outputs[0] & r.converged, Word{0});
}

TEST(CyclicSim, StableCycleConvergesEverywhere) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId loop = n.add_gate(GateType::kAnd, {a, a});
  n.set_fanin(loop, {a, loop});  // L = a & L: settles at 0
  n.mark_output(loop, "y");
  ASSERT_TRUE(n.is_cyclic());
  const CyclicSimResult r =
      simulate_cyclic(n, std::vector<Word>{0x123456789ABCDEF0ull}, {});
  EXPECT_EQ(r.converged, ~Word{0});
  EXPECT_EQ(r.outputs[0], Word{0});
}

// --- structural hashing / optimize ----------------------------------------

TEST(Strash, PreservesFunctionOnRandomCircuits) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    const Netlist net = random_circuit(600, seed);
    OptimizeStats stats;
    const Netlist opt = optimize(net, &stats);
    EXPECT_LE(opt.num_gates(), net.num_gates());
    std::mt19937_64 rng(seed);
    for (int round = 0; round < 8; ++round) {
      std::vector<Word> in(net.num_inputs());
      for (Word& w : in) w = rng();
      EXPECT_EQ(simulate(net, in, {}, 1).outputs,
                simulate(opt, in, {}, 1).outputs)
          << "seed " << seed;
    }
  }
}

TEST(Strash, PreservesLockedFunctionUnderCorrectKey) {
  const Netlist original = random_circuit(300, 21);
  core::FullLockConfig config = core::FullLockConfig::with_plrs(
      {8}, core::ClnTopology::kShuffleBlocking, core::CycleMode::kAvoid,
      /*twist_luts=*/false, /*negate_probability=*/0.5);
  config.seed = 9;
  const core::LockedCircuit locked = core::full_lock(original, config);
  const Netlist opt = optimize(locked.netlist);
  ASSERT_EQ(opt.num_keys(), locked.netlist.num_keys());
  const std::vector<Word> key = broadcast(locked.correct_key);
  std::mt19937_64 rng(22);
  for (int round = 0; round < 8; ++round) {
    std::vector<Word> in(original.num_inputs());
    for (Word& w : in) w = rng();
    EXPECT_EQ(simulate(locked.netlist, in, key, 1).outputs,
              simulate(opt, in, key, 1).outputs);
  }
}

TEST(Strash, OneLevelAndAbsorption) {
  // AND(AND(a,b), b) = AND(a,b): the outer gate is absorbed away.
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId inner = n.add_gate(GateType::kAnd, {a, b});
  n.mark_output(n.add_gate(GateType::kAnd, {inner, b}), "y");
  OptimizeStats stats;
  const Netlist opt = optimize(n, &stats);
  EXPECT_GE(stats.absorptions_applied, 1u);
  EXPECT_EQ(opt.num_logic_gates(), 1u);  // just AND(a,b)
}

TEST(Strash, OneLevelAndContradiction) {
  // AND(AND(a, ~b), b) = 0.
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId nb = n.add_gate(GateType::kNot, {b});
  const GateId inner = n.add_gate(GateType::kAnd, {a, nb});
  n.mark_output(n.add_gate(GateType::kAnd, {inner, b}), "y");
  OptimizeStats stats;
  const Netlist opt = optimize(n, &stats);
  EXPECT_GE(stats.absorptions_applied, 1u);
  EXPECT_EQ(opt.num_logic_gates(), 0u);  // constant 0
  const std::vector<bool> out = eval_once(opt, {true, true}, {});
  EXPECT_FALSE(out[0]);
}

TEST(Strash, OneLevelXorCancellation) {
  // XOR(XOR(a,b), b) = a.
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId inner = n.add_gate(GateType::kXor, {a, b});
  n.mark_output(n.add_gate(GateType::kXor, {inner, b}), "y");
  OptimizeStats stats;
  const Netlist opt = optimize(n, &stats);
  EXPECT_GE(stats.xor_pairs_cancelled, 1u);
  EXPECT_EQ(opt.num_logic_gates(), 0u);  // output is the wire a
  for (const bool av : {false, true}) {
    for (const bool bv : {false, true}) {
      EXPECT_EQ(eval_once(opt, {av, bv}, {})[0], av);
    }
  }
}

// --- oracle accounting at the attack level --------------------------------

// The plain SAT attack queries the oracle exactly once per DIP: the counter
// must equal the iteration count, with no flat-64 inflation anywhere.
TEST(Accounting, SatAttackQueriesEqualIterations) {
  const Netlist original = random_circuit(200, 31, 10, 5);
  core::FullLockConfig config = core::FullLockConfig::with_plrs(
      {8}, core::ClnTopology::kShuffleBlocking, core::CycleMode::kAvoid,
      /*twist_luts=*/false, /*negate_probability=*/0.5);
  config.seed = 5;
  const core::LockedCircuit locked = core::full_lock(original, config);
  const Oracle oracle(original);
  attacks::AttackOptions options;
  options.timeout_s = 60.0;
  const attacks::AttackResult result =
      attacks::run("sat", locked.netlist, oracle, options).result;
  ASSERT_EQ(result.status, attacks::AttackStatus::kSuccess);
  EXPECT_EQ(oracle.num_queries(), result.iterations);
  EXPECT_EQ(oracle.num_queries(), result.oracle_queries);
}

}  // namespace
}  // namespace fl::netlist

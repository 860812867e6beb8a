// CLN construction: stage/SwB/key counts (paper formulas), permutation
// tracing, routing coverage of blocking vs almost-non-blocking topologies,
// simulation semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "core/cln.h"
#include "netlist/simulator.h"

namespace fl::core {
namespace {

using netlist::GateId;
using netlist::Netlist;
using netlist::Word;

class ClnCounts : public ::testing::TestWithParam<int> {};

TEST_P(ClnCounts, PaperFormulas) {
  const int n = GetParam();
  const int b = static_cast<int>(std::log2(n));
  ClnConfig blocking;
  blocking.n = n;
  blocking.topology = ClnTopology::kShuffleBlocking;
  // Paper: blocking networks have N/2 * log2(N) SwBs.
  EXPECT_EQ(cln_num_swbs(blocking), n / 2 * b);
  EXPECT_EQ(cln_num_stages(blocking), b);

  ClnConfig nonblocking;
  nonblocking.n = n;
  nonblocking.topology = ClnTopology::kBanyanNonBlocking;
  // Paper: LOG(N, log2(N)-2, 1) has log2(N)-2 extra stages.
  EXPECT_EQ(cln_num_stages(nonblocking), 2 * b - 2);
  EXPECT_EQ(cln_num_swbs(nonblocking), n / 2 * (2 * b - 2));

  // Key counts: 2 bits per SwB + N inverter bits.
  EXPECT_EQ(cln_num_keys(nonblocking),
            2 * cln_num_swbs(nonblocking) + n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClnCounts, ::testing::Values(4, 8, 16, 32, 64));

TEST(Cln, RejectsBadSizes) {
  ClnConfig config;
  config.n = 6;
  EXPECT_THROW(ClnBuilder{config}, std::invalid_argument);
  config.n = 2;
  EXPECT_THROW(ClnBuilder{config}, std::invalid_argument);
}

TEST(Cln, BuildMatchesDeclaredCounts) {
  for (const ClnTopology topo :
       {ClnTopology::kShuffleBlocking, ClnTopology::kBanyanNonBlocking}) {
    ClnConfig config;
    config.n = 8;
    config.topology = topo;
    const ClnBuilder builder(config);
    Netlist net;
    std::vector<GateId> inputs;
    for (int i = 0; i < 8; ++i) inputs.push_back(net.add_input("x"));
    const ClnInstance inst = builder.build(net, inputs);
    EXPECT_EQ(inst.num_swbs(), cln_num_swbs(config));
    EXPECT_EQ(static_cast<int>(inst.key_gates.size()), cln_num_keys(config));
    EXPECT_EQ(inst.num_select_keys + inst.num_inverter_keys,
              cln_num_keys(config));
    EXPECT_EQ(inst.outputs.size(), 8u);
    EXPECT_FALSE(net.is_cyclic());
  }
}

// Simulation agrees with trace_permutation: for random routing keys, output
// j carries input perm[j] (inverters off).
TEST(Cln, TraceMatchesSimulation) {
  std::mt19937_64 rng(3);
  for (const ClnTopology topo :
       {ClnTopology::kShuffleBlocking, ClnTopology::kBanyanNonBlocking}) {
    ClnConfig config;
    config.n = 16;
    config.topology = topo;
    config.with_inverters = false;
    const ClnBuilder builder(config);
    Netlist net;
    std::vector<GateId> inputs;
    for (int i = 0; i < 16; ++i) inputs.push_back(net.add_input("x"));
    const ClnInstance inst = builder.build(net, inputs);
    for (const GateId o : inst.outputs) net.mark_output(o);

    for (int trial = 0; trial < 8; ++trial) {
      const std::vector<bool> key = builder.random_routing_key(rng);
      const std::vector<int> perm = inst.trace_permutation(key);
      // perm must be a permutation.
      std::set<int> seen(perm.begin(), perm.end());
      ASSERT_EQ(seen.size(), 16u);

      std::vector<Word> in(16);
      for (Word& w : in) w = rng();
      const auto out =
          netlist::simulate(net, in, netlist::broadcast(key), 1).outputs;
      for (int j = 0; j < 16; ++j) {
        ASSERT_EQ(out[j], in[perm[j]]) << "output " << j;
      }
    }
  }
}

TEST(Cln, InverterLayerNegatesPerKeyBit) {
  ClnConfig config;
  config.n = 4;
  config.with_inverters = true;
  const ClnBuilder builder(config);
  Netlist net;
  std::vector<GateId> inputs;
  for (int i = 0; i < 4; ++i) inputs.push_back(net.add_input("x"));
  const ClnInstance inst = builder.build(net, inputs);
  for (const GateId o : inst.outputs) net.mark_output(o);

  std::mt19937_64 rng(4);
  const std::vector<bool> select = builder.random_routing_key(rng);
  const std::vector<int> perm = inst.trace_permutation(select);
  // Straight key + inverter on output 2 only.
  std::vector<bool> key = select;
  key.insert(key.end(), {false, false, true, false});
  std::vector<Word> in{0x1, 0x2, 0x4, 0x8};
  const auto out =
      netlist::simulate(net, in, netlist::broadcast(key), 1).outputs;
  for (int j = 0; j < 4; ++j) {
    const Word expect = j == 2 ? ~in[perm[j]] : in[perm[j]];
    EXPECT_EQ(out[j], expect);
  }
}

TEST(Cln, BroadcastConfigurationDetected) {
  ClnConfig config;
  config.n = 4;
  const ClnBuilder builder(config);
  Netlist net;
  std::vector<GateId> inputs;
  for (int i = 0; i < 4; ++i) inputs.push_back(net.add_input("x"));
  const ClnInstance inst = builder.build(net, inputs);
  // First SwB keys (1,0): both MUXes pick input b / input b -> broadcast.
  std::vector<bool> key(inst.num_select_keys, false);
  key[0] = true;
  EXPECT_THROW(inst.trace_permutation(key), std::invalid_argument);
}

// Routing coverage: the almost-non-blocking network realizes far more
// distinct permutations than the blocking shuffle at equal N (the paper's
// §3.1 argument for the LOG(N, log2N-2, 1) topology).
TEST(Cln, NonBlockingCoversMorePermutations) {
  std::mt19937_64 rng(7);
  const auto count_distinct = [&rng](ClnTopology topo) {
    ClnConfig config;
    config.n = 8;
    config.topology = topo;
    config.with_inverters = false;
    const ClnBuilder builder(config);
    Netlist net;
    std::vector<GateId> inputs;
    for (int i = 0; i < 8; ++i) inputs.push_back(net.add_input("x"));
    const ClnInstance inst = builder.build(net, inputs);
    std::set<std::vector<int>> perms;
    for (int trial = 0; trial < 60000; ++trial) {
      perms.insert(inst.trace_permutation(builder.random_routing_key(rng)));
    }
    return perms.size();
  };
  const std::size_t blocking = count_distinct(ClnTopology::kShuffleBlocking);
  const std::size_t nonblocking =
      count_distinct(ClnTopology::kBanyanNonBlocking);
  // 8-wire blocking shuffle has only 2^12 = 4096 switch configurations, so
  // it can never realize more than 4096 of the 8! = 40320 permutations. The
  // extended LOG(8,1,1) network must demonstrably exceed that ceiling.
  EXPECT_LE(blocking, 4096u);
  EXPECT_GT(nonblocking, 2 * blocking);
}

// LOG(N, M, P) generalization: arbitrary extra stages and vertical copies.
TEST(Cln, ExtraStagesParameter) {
  ClnConfig config;
  config.n = 16;
  config.topology = ClnTopology::kBanyanNonBlocking;
  config.extra_stages = 0;  // plain butterfly
  EXPECT_EQ(cln_num_stages(config), 4);
  config.extra_stages = 5;  // beyond the Benes point, strides cycle
  EXPECT_EQ(cln_num_stages(config), 9);
  config.extra_stages = -1;  // paper default: log2(N) - 2
  EXPECT_EQ(cln_num_stages(config), 6);
  config.extra_stages = -2;
  EXPECT_THROW(ClnBuilder{config}, std::invalid_argument);
}

TEST(Cln, ExtraStagesRouteCorrectly) {
  std::mt19937_64 rng(21);
  for (const int extra : {0, 1, 3, 6}) {
    ClnConfig config;
    config.n = 8;
    config.extra_stages = extra;
    config.with_inverters = false;
    const ClnBuilder builder(config);
    Netlist net;
    std::vector<GateId> inputs;
    for (int i = 0; i < 8; ++i) inputs.push_back(net.add_input("x"));
    const ClnInstance inst = builder.build(net, inputs);
    for (const GateId o : inst.outputs) net.mark_output(o);
    const std::vector<bool> key = builder.random_routing_key(rng);
    const std::vector<int> perm = inst.trace_permutation(key);
    std::vector<Word> in(8);
    for (Word& w : in) w = rng();
    const auto out =
        netlist::simulate(net, in, netlist::broadcast(key), 1).outputs;
    for (int j = 0; j < 8; ++j) {
      ASSERT_EQ(out[j], in[perm[j]]) << "extra=" << extra;
    }
  }
}

TEST(Cln, VerticalCopiesLogNmp) {
  // LOG(8, 1, 3): three vertical copies + 2-bit copy selectors per output.
  ClnConfig config;
  config.n = 8;
  config.extra_stages = 1;
  config.copies = 3;
  config.with_inverters = true;
  const int per_copy_swbs = 8 / 2 * (3 + 1);
  EXPECT_EQ(cln_num_swbs(config), 3 * per_copy_swbs);
  EXPECT_EQ(cln_copy_select_bits(config), 2);
  EXPECT_EQ(cln_num_keys(config), 3 * per_copy_swbs * 2 + 8 * 2 + 8);

  const ClnBuilder builder(config);
  Netlist net;
  std::vector<GateId> inputs;
  for (int i = 0; i < 8; ++i) inputs.push_back(net.add_input("x"));
  const ClnInstance inst = builder.build(net, inputs);
  for (const GateId o : inst.outputs) net.mark_output(o);
  EXPECT_EQ(static_cast<int>(inst.key_gates.size()), cln_num_keys(config));
  EXPECT_EQ(inst.num_copy_keys, 16);
  EXPECT_FALSE(net.is_cyclic());

  // Routing correctness through the copy-select column.
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    const std::vector<bool> key = builder.random_routing_key(rng);
    const std::vector<int> perm = inst.trace_permutation(key);
    std::vector<bool> full = key;
    full.resize(inst.key_gates.size(), false);  // inverters off
    std::vector<Word> in(8);
    for (Word& w : in) w = rng();
    const auto out =
        netlist::simulate(net, in, netlist::broadcast(full), 1).outputs;
    for (int j = 0; j < 8; ++j) {
      ASSERT_EQ(out[j], in[perm[j]]) << "trial " << trial;
    }
  }
}

TEST(Cln, CopyMixedNonPermutationDetected) {
  ClnConfig config;
  config.n = 8;
  config.copies = 2;
  config.with_inverters = false;
  const ClnBuilder builder(config);
  Netlist net;
  std::vector<GateId> inputs;
  for (int i = 0; i < 8; ++i) inputs.push_back(net.add_input("x"));
  const ClnInstance inst = builder.build(net, inputs);
  // Straight routing in both copies, mixed copy choices: still the identity
  // permutation (the copies are identical) — valid.
  std::vector<bool> key(inst.num_select_keys, false);
  EXPECT_NO_THROW(inst.trace_permutation(key));
  // Swap the *last* stage's first SwB in copy 0 only: copy 0 now routes
  // source 2 to output 0. Select copy 0 for output 0 and copy 1 (identity)
  // for output 2: both outputs source input 2 — not a permutation.
  const int last_stage_first_swb = inst.num_swb_keys / 2 - 4 * 2;  // stage 3
  key[last_stage_first_swb] = true;
  key[last_stage_first_swb + 1] = true;
  key[inst.num_swb_keys + 2] = true;  // output 2 -> copy 1
  EXPECT_THROW(inst.trace_permutation(key), std::invalid_argument);
}

TEST(Cln, SharedSelectHalvesKeyBits) {
  ClnConfig config;
  config.n = 8;
  config.independent_selects = false;
  config.with_inverters = false;
  EXPECT_EQ(cln_num_keys(config), cln_num_swbs(config));
  const ClnBuilder builder(config);
  Netlist net;
  std::vector<GateId> inputs;
  for (int i = 0; i < 8; ++i) inputs.push_back(net.add_input("x"));
  const ClnInstance inst = builder.build(net, inputs);
  EXPECT_EQ(static_cast<int>(inst.key_gates.size()), cln_num_keys(config));
  // Every select key now swaps a full SwB: all keys permute.
  std::mt19937_64 rng(1);
  for (int trial = 0; trial < 16; ++trial) {
    std::vector<bool> key(inst.num_select_keys);
    for (std::size_t i = 0; i < key.size(); ++i) key[i] = (rng() & 1) != 0;
    EXPECT_NO_THROW(inst.trace_permutation(key));
  }
}

}  // namespace
}  // namespace fl::core

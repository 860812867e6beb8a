// Structural analysis: cones (against a fixpoint reference), reachability,
// liveness, feedback edges, compaction, signal probabilities, the key-cone
// partition.
#include <gtest/gtest.h>

#include <random>
#include <unordered_set>

#include "core/full_lock.h"
#include "locking/scheme.h"
#include "netlist/generator.h"
#include "netlist/profiles.h"
#include "netlist/simulator.h"
#include "netlist/structure.h"

namespace fl::netlist {
namespace {

// Fixpoint references for the cone queries, independent of the fanout rows
// and of any depth-first walk: sweep the gates in id order, OR each gate's
// fanins into it (fanout cone) or each live gate into its fanins (live
// logic), and repeat until a sweep changes nothing.
std::vector<bool> reference_fanout_cone(const Netlist& n,
                                        std::span<const GateId> seeds) {
  std::vector<bool> in(n.num_gates(), false);
  for (const GateId s : seeds) in[s] = true;
  for (bool changed = true; changed;) {
    changed = false;
    for (GateId g = 0; g < n.num_gates(); ++g) {
      for (const GateId f : n.fanin(g)) {
        if (in[f] && !in[g]) in[g] = changed = true;
      }
    }
  }
  return in;
}

std::vector<bool> reference_live(const Netlist& n) {
  std::vector<bool> live(n.num_gates(), false);
  for (const OutputPort& o : n.outputs()) live[o.gate] = true;
  for (bool changed = true; changed;) {
    changed = false;
    for (GateId g = 0; g < n.num_gates(); ++g) {
      for (const GateId f : n.fanin(g)) {
        if (live[g] && !live[f]) live[f] = changed = true;
      }
    }
  }
  return live;
}

// Hosts and locks for the references: two generated circuits, an acyclic
// Full-Lock and a cyclic one.
std::vector<Netlist> cone_cases() {
  const Netlist c432 = make_circuit("c432", 1);
  const Netlist acyclic =
      lock::lock_with("full-lock", c432, lock::make_options(3, {}, "sizes=8"))
          .netlist;
  const Netlist cyclic =
      lock::lock_with("full-lock", c432,
                      lock::make_options(3, {}, "sizes=8,cycle=force"))
          .netlist;
  EXPECT_FALSE(acyclic.is_cyclic());
  EXPECT_TRUE(cyclic.is_cyclic());
  return {c432, make_circuit("c880", 1), acyclic, cyclic};
}

TEST(Cones, KeyConeLiveGatesAndPartitionMatchTheFixpointReference) {
  const std::vector<Netlist> cases = cone_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "case " << i);
    const Netlist& n = cases[i];
    const std::vector<bool> keyed = reference_fanout_cone(n, n.keys());
    EXPECT_EQ(n.fanout_cone(n.keys()), keyed);
    EXPECT_EQ(live_gates(n), reference_live(n));
    KeyConePartition partition(n);
    for (GateId g = 0; g < n.num_gates(); ++g) {
      EXPECT_EQ(partition.in_cone(g), keyed[g]) << g;
    }
  }
}

TEST(Reachability, AgreesWithFanoutCone) {
  const std::vector<Netlist> cases = cone_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "case " << i);
    const Netlist& n = cases[i];
    Reachability reach(n);
    for (GateId src = 0; src < n.num_gates(); src += 13) {
      const std::vector<bool> cone = reference_fanout_cone(n, {&src, 1});
      for (GateId g = 0; g < n.num_gates(); ++g) {
        EXPECT_EQ(reach.reaches(src, g), cone[g]) << src << " -> " << g;
      }
    }
  }
}

TEST(LiveGates, DeadLogicDetected) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId live = n.add_gate(GateType::kNot, {a}, "live");
  const GateId dead = n.add_gate(GateType::kBuf, {a}, "dead");
  n.mark_output(live, "y");
  const auto lv = live_gates(n);
  EXPECT_TRUE(lv[live]);
  EXPECT_FALSE(lv[dead]);
  EXPECT_TRUE(lv[a]);
}

TEST(FeedbackEdges, EmptyOnDag) {
  const Netlist n = make_c17();
  EXPECT_TRUE(feedback_edges(n).empty());
}

TEST(FeedbackEdges, BreakingThemRestoresAcyclicity) {
  // Two interlocking cycles.
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId g1 = n.add_gate(GateType::kAnd, {a, a});
  const GateId g2 = n.add_gate(GateType::kOr, {g1, a});
  const GateId g3 = n.add_gate(GateType::kXor, {g2, g1});
  n.set_fanin(g1, {a, g3});
  n.set_fanin(g2, {g1, g3});
  n.mark_output(g3);
  ASSERT_TRUE(n.is_cyclic());
  const auto fb = feedback_edges(n);
  ASSERT_FALSE(fb.empty());
  Netlist cut = n;
  for (const Edge& e : fb) {
    // Redirect the feedback pin to a primary input to break the loop.
    std::vector<GateId> fanin = cut.gate(e.gate).fanin_vector();
    fanin[e.pin] = a;
    cut.set_fanin(e.gate, std::move(fanin));
  }
  EXPECT_FALSE(cut.is_cyclic());
}

TEST(Compact, RemovesDeadKeepsInterface) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId k = n.add_key("keyinput0");
  const GateId live = n.add_gate(GateType::kXor, {a, k}, "live");
  n.add_gate(GateType::kNot, {a}, "dead1");
  n.add_gate(GateType::kBuf, {k}, "dead2");
  n.mark_output(live, "y");
  std::vector<GateId> remap;
  const Netlist c = compact(n, &remap);
  EXPECT_EQ(c.num_gates(), 3u);
  EXPECT_EQ(c.num_inputs(), 1u);
  EXPECT_EQ(c.num_keys(), 1u);
  EXPECT_EQ(c.num_outputs(), 1u);
  EXPECT_EQ(remap[3], kNullGate);
  EXPECT_NE(remap[live], kNullGate);
}

TEST(Compact, PreservesFunction) {
  const Netlist n = make_circuit("i4", 6);
  const Netlist c = compact(n);
  std::mt19937_64 rng(2);
  std::vector<Word> in(n.num_inputs());
  for (Word& w : in) w = rng();
  const auto out_a = simulate(n, in, {}, 1).outputs;
  const auto out_b = simulate(c, in, {}, 1).outputs;
  for (std::size_t o = 0; o < out_a.size(); ++o) {
    EXPECT_EQ(out_a[o], out_b[o]);
  }
}

TEST(Compact, UnusedKeysKeptInOrder) {
  Netlist n;
  const GateId a = n.add_input("a");
  n.add_key("k0");
  n.add_key("k1");
  const GateId g = n.add_gate(GateType::kNot, {a});
  n.mark_output(g, "y");
  const Netlist c = compact(n);
  ASSERT_EQ(c.num_keys(), 2u);
  EXPECT_EQ(c.gate(c.keys()[0]).name, "k0");
  EXPECT_EQ(c.gate(c.keys()[1]).name, "k1");
}

TEST(Decompose, LowersEveryNaryGate) {
  const Netlist n = make_circuit("c3540", 8);
  const Netlist low = decompose_to_two_input(n);
  for (GateId g = 0; g < low.num_gates(); ++g) {
    const Gate& gate = low.gate(g);
    if (gate.type == GateType::kMux) continue;
    EXPECT_LE(gate.fanin.size(), 2u);
  }
  EXPECT_GE(low.num_logic_gates(), n.num_logic_gates());
}

TEST(Decompose, PreservesFunction) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    GeneratorConfig config;
    config.num_inputs = 10;
    config.num_outputs = 5;
    config.num_gates = 120;
    config.max_fanin = 5;
    config.seed = seed;
    const Netlist n = generate_circuit(config);
    const Netlist low = decompose_to_two_input(n);
    std::mt19937_64 rng(seed);
    for (int round = 0; round < 8; ++round) {
      std::vector<Word> in(n.num_inputs());
      for (Word& w : in) w = rng();
      const auto out_a = simulate(n, in, {}, 1).outputs;
      const auto out_b = simulate(low, in, {}, 1).outputs;
      for (std::size_t o = 0; o < out_a.size(); ++o) {
        ASSERT_EQ(out_a[o], out_b[o]) << "seed " << seed;
      }
    }
  }
}

TEST(Decompose, OddFaninAndEveryFamily) {
  Netlist n;
  std::vector<GateId> ins;
  for (int i = 0; i < 5; ++i) ins.push_back(n.add_input("x"));
  for (const GateType t : {GateType::kAnd, GateType::kNand, GateType::kOr,
                           GateType::kNor, GateType::kXor, GateType::kXnor}) {
    n.mark_output(n.add_gate(t, ins), std::string(to_string(t)));
  }
  const Netlist low = decompose_to_two_input(n);
  std::mt19937_64 rng(4);
  std::vector<Word> in(5);
  for (Word& w : in) w = rng();
  EXPECT_EQ(simulate(n, in, {}, 1).outputs, simulate(low, in, {}, 1).outputs);
}

TEST(Decompose, RejectsCyclic) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId g = n.add_gate(GateType::kOr, {a, a});
  n.set_fanin(g, {a, g});
  n.mark_output(g);
  EXPECT_THROW(decompose_to_two_input(n), std::invalid_argument);
}

TEST(SignalProbabilities, BasicGates) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId g_and = n.add_gate(GateType::kAnd, {a, b});
  const GateId g_or = n.add_gate(GateType::kOr, {a, b});
  const GateId g_xor = n.add_gate(GateType::kXor, {a, b});
  const GateId g_not = n.add_gate(GateType::kNot, {g_and});
  n.mark_output(g_not);
  const auto p = signal_probabilities(n);
  EXPECT_NEAR(p[g_and], 0.25, 1e-9);
  EXPECT_NEAR(p[g_or], 0.75, 1e-9);
  EXPECT_NEAR(p[g_xor], 0.5, 1e-9);
  EXPECT_NEAR(p[g_not], 0.75, 1e-9);
}

TEST(SignalProbabilities, DeepAndTreeSkews) {
  // An 8-input AND tree: p = 1/256 — the Anti-SAT tell-tale.
  Netlist n;
  std::vector<GateId> nodes;
  for (int i = 0; i < 8; ++i) nodes.push_back(n.add_input("x"));
  while (nodes.size() > 1) {
    std::vector<GateId> next;
    for (std::size_t i = 0; i + 1 < nodes.size(); i += 2) {
      next.push_back(n.add_gate(GateType::kAnd, {nodes[i], nodes[i + 1]}));
    }
    nodes = next;
  }
  n.mark_output(nodes[0]);
  const auto p = signal_probabilities(n);
  EXPECT_NEAR(p[nodes[0]], 1.0 / 256.0, 1e-9);
}

TEST(SignalProbabilities, CyclicRelaxationStaysInRange) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId g1 = n.add_gate(GateType::kOr, {a, a});
  n.set_fanin(g1, {a, g1});
  n.mark_output(g1);
  const auto p = signal_probabilities(n);
  EXPECT_GE(p[g1], 0.0);
  EXPECT_LE(p[g1], 1.0);
}

TEST(KeyConePartition, PartitionInvariantsOnLockedCircuit) {
  const Netlist original = make_circuit("c432", 21);
  const core::LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({4}));
  const Netlist& net = locked.netlist;
  ASSERT_FALSE(net.is_cyclic());
  KeyConePartition partition(net);

  // Key inputs are in the cone, and cone membership is fanout-closed: a
  // gate with a cone fanin is itself in the cone.
  for (const GateId k : net.keys()) EXPECT_TRUE(partition.in_cone(k));
  for (GateId g = 0; g < static_cast<GateId>(net.num_gates()); ++g) {
    if (is_source(net.gate_type(g))) continue;
    bool cone_fanin = false;
    for (const GateId f : net.fanin(g)) cone_fanin |= partition.in_cone(f);
    if (cone_fanin) {
      EXPECT_TRUE(partition.in_cone(g)) << g;
    }
  }

  std::unordered_set<GateId> cone(partition.cone_topo().begin(),
                                  partition.cone_topo().end());
  std::unordered_set<GateId> support(partition.support_topo().begin(),
                                     partition.support_topo().end());
  EXPECT_FALSE(cone.empty());
  // Every encoded cone gate is a cone member; taps never are. support_topo
  // covers the cone and is fanin-closed up to sources and other support
  // gates (exactly what a restricted full copy needs).
  for (const GateId g : partition.cone_topo()) {
    EXPECT_TRUE(partition.in_cone(g)) << g;
    EXPECT_TRUE(support.count(g)) << g;
  }
  for (const GateId t : partition.taps()) {
    EXPECT_FALSE(partition.in_cone(t)) << t;
  }
  for (const GateId g : partition.support_topo()) {
    for (const GateId f : net.fanin(g)) {
      EXPECT_TRUE(support.count(f) || is_source(net.gate_type(f)))
          << "support gate " << g << " reads unencoded net " << f;
    }
  }

  // Cone gates a cone copy reads but does not encode must be taps, so a
  // frontier sweep covers every external value the copy consumes.
  std::unordered_set<GateId> taps(partition.taps().begin(),
                                  partition.taps().end());
  for (const GateId g : partition.cone_topo()) {
    for (const GateId f : net.fanin(g)) {
      if (cone.count(f) || is_source(net.gate_type(f))) continue;
      EXPECT_TRUE(taps.count(f)) << "cone gate " << g << " reads net " << f
                                 << " that is neither cone nor tap";
    }
  }
}

TEST(KeyConePartition, FixedRegionMatchesFullSimulationAtTaps) {
  // The fixed region is key-free by construction: simulating it on the
  // primary inputs reproduces the full netlist's tap values under *any*
  // key, which is what lets the DIP loop sweep it once per pattern.
  const Netlist original = make_circuit("c880", 22);
  const core::LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({4, 4}));
  const Netlist& net = locked.netlist;
  ASSERT_FALSE(net.is_cyclic());
  KeyConePartition partition(net);
  const Netlist& fixed = partition.fixed_region();
  EXPECT_EQ(fixed.num_keys(), 0u);
  EXPECT_EQ(fixed.num_inputs(), net.num_inputs());
  EXPECT_EQ(fixed.num_outputs(), partition.taps().size());

  std::mt19937_64 rng(77);
  std::vector<Word> inputs(net.num_inputs());
  for (auto& w : inputs) w = rng();
  std::vector<Word> keys(net.num_keys());
  for (auto& w : keys) w = rng();

  // The full netlist with every tap marked as an extra output exposes the
  // tap values under the random key.
  const std::span<const GateId> taps = partition.taps();
  Netlist probed = net;
  for (const GateId tap : taps) probed.mark_output(tap);
  const std::vector<Word> all_outputs =
      simulate(probed, inputs, keys, 1).outputs;
  const std::vector<Word> tap_values = simulate(fixed, inputs, {}, 1).outputs;
  ASSERT_EQ(tap_values.size(), taps.size());
  for (std::size_t t = 0; t < taps.size(); ++t) {
    EXPECT_EQ(tap_values[t], all_outputs[net.num_outputs() + t]) << "tap " << t;
  }
}

TEST(KeyConePartition, KeylessCircuitHasEmptyCone) {
  const Netlist n = make_circuit("c432", 23);
  KeyConePartition partition(n);
  EXPECT_TRUE(partition.cone_topo().empty());
  EXPECT_TRUE(partition.support_topo().empty());
  // Every output port is key-independent, so it must surface as a tap.
  std::unordered_set<GateId> taps(partition.taps().begin(),
                                  partition.taps().end());
  for (const auto& port : n.outputs()) EXPECT_TRUE(taps.count(port.gate));
}

TEST(KeyConePartition, RebuildsWhenNetlistChanges) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId g = n.add_gate(GateType::kAnd, {a, b});
  n.mark_output(g, "y");
  KeyConePartition partition(n);
  EXPECT_TRUE(partition.cone_topo().empty());
  EXPECT_FALSE(partition.in_cone(g));

  // Structural edit: the partition tracks the netlist generation and
  // rebuilds lazily on the next query.
  const GateId k = n.add_key("k");
  const GateId x = n.add_gate(GateType::kXor, {g, k});
  n.mark_output(x, "z");
  EXPECT_TRUE(partition.in_cone(k));
  EXPECT_TRUE(partition.in_cone(x));
  EXPECT_FALSE(partition.in_cone(g));
  ASSERT_EQ(partition.cone_topo().size(), 1u);
  EXPECT_EQ(partition.cone_topo()[0], x);
}

TEST(KeyConePartition, CyclicTopoViewsThrow) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId k = n.add_key("k");
  const GateId g1 = n.add_gate(GateType::kOr, {a, k});
  n.set_fanin(g1, {g1, k});
  n.mark_output(g1, "y");
  ASSERT_TRUE(n.is_cyclic());
  KeyConePartition partition(n);
  EXPECT_TRUE(partition.in_cone(g1));  // membership works on any netlist
  EXPECT_THROW(partition.cone_topo(), std::invalid_argument);
  EXPECT_THROW(partition.fixed_region(), std::invalid_argument);
}

}  // namespace
}  // namespace fl::netlist

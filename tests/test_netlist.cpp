// Netlist container: construction, edits, graph queries.
#include <gtest/gtest.h>

#include "netlist/netlist.h"

namespace fl::netlist {
namespace {

Netlist small_chain() {
  Netlist n("chain");
  const GateId a = n.add_input("a");
  const GateId b = n.add_input("b");
  const GateId g1 = n.add_gate(GateType::kAnd, {a, b}, "g1");
  const GateId g2 = n.add_gate(GateType::kNot, {g1}, "g2");
  n.mark_output(g2, "y");
  return n;
}

TEST(Netlist, BasicConstruction) {
  const Netlist n = small_chain();
  EXPECT_EQ(n.num_gates(), 4u);
  EXPECT_EQ(n.num_inputs(), 2u);
  EXPECT_EQ(n.num_outputs(), 1u);
  EXPECT_EQ(n.num_logic_gates(), 2u);
  EXPECT_NO_THROW(n.validate());
}

TEST(Netlist, ArityIsEnforced) {
  Netlist n;
  const GateId a = n.add_input("a");
  EXPECT_THROW(n.add_gate(GateType::kNot, {a, a}), std::invalid_argument);
  EXPECT_THROW(n.add_gate(GateType::kAnd, {a}), std::invalid_argument);
  EXPECT_THROW(n.add_gate(GateType::kMux, {a, a}), std::invalid_argument);
  EXPECT_THROW(n.add_gate(GateType::kInput, {}), std::invalid_argument);
}

TEST(Netlist, FaninMustExist) {
  Netlist n;
  const GateId a = n.add_input("a");
  EXPECT_THROW(n.add_gate(GateType::kNot, {a + 5}), std::invalid_argument);
}

TEST(Netlist, KeyAndInputIndices) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId k0 = n.add_key("k0");
  const GateId k1 = n.add_key("k1");
  EXPECT_EQ(n.key_index(k0), 0);
  EXPECT_EQ(n.key_index(k1), 1);
  EXPECT_EQ(n.key_index(a), -1);
  EXPECT_EQ(n.input_index(a), 0);
  EXPECT_EQ(n.input_index(k0), -1);
}

TEST(Netlist, TopologicalOrderOnDag) {
  const Netlist n = small_chain();
  const std::span<const GateId> order = n.topo_span();
  ASSERT_EQ(order.size(), n.num_gates());
  // Every gate appears after its fanins.
  std::vector<int> position(n.num_gates());
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (GateId g = 0; g < n.num_gates(); ++g) {
    for (const GateId f : n.gate(g).fanin) {
      EXPECT_LT(position[f], position[g]);
    }
  }
  EXPECT_FALSE(n.is_cyclic());
}

TEST(Netlist, CycleDetection) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId g1 = n.add_gate(GateType::kAnd, {a, a}, "g1");
  const GateId g2 = n.add_gate(GateType::kOr, {g1, a}, "g2");
  n.replace_fanin_of(g1, a, g2);  // g1 reads g2, g2 reads g1: cycle
  EXPECT_TRUE(n.is_cyclic());
  EXPECT_TRUE(n.topo_span().empty());
  EXPECT_FALSE(n.levels().has_value());
}

TEST(Netlist, FanoutMap) {
  const Netlist n = small_chain();
  EXPECT_EQ(n.fanout(0).size(), 1u);  // a -> g1
  EXPECT_EQ(n.fanout(2).size(), 1u);  // g1 -> g2
  EXPECT_TRUE(n.fanout(3).empty());   // g2 is a sink
}

TEST(Netlist, FaninAndFanoutCones) {
  const Netlist n = small_chain();
  const GateId g2 = 3;
  const auto cone_in = n.fanin_cone({&g2, 1});
  EXPECT_TRUE(cone_in[0]);
  EXPECT_TRUE(cone_in[1]);
  EXPECT_TRUE(cone_in[2]);
  EXPECT_TRUE(cone_in[3]);
  const GateId a = 0;
  const auto cone_out = n.fanout_cone({&a, 1});
  EXPECT_TRUE(cone_out[2]);
  EXPECT_TRUE(cone_out[3]);
  EXPECT_FALSE(cone_out[1]);
  // Several seeds: the union of their cones; no seeds: the empty cone.
  const std::vector<GateId> inputs = {0, 1};
  EXPECT_EQ(n.fanout_cone(inputs), std::vector<bool>(4, true));
  EXPECT_EQ(n.fanin_cone({}), std::vector<bool>(4, false));
}

TEST(Netlist, ReplaceNetRewiresReadersAndOutputs) {
  Netlist n = small_chain();
  const GateId a = 0;
  const GateId spare = n.add_input("c");
  n.replace_net(a, spare);
  EXPECT_EQ(n.gate(2).fanin[0], spare);
  // Output port replacement too.
  n.replace_net(3, spare);
  EXPECT_EQ(n.outputs()[0].gate, spare);
}

TEST(Netlist, RetypeValidatesArity) {
  Netlist n = small_chain();
  n.retype(2, GateType::kNand);  // AND -> NAND fine
  EXPECT_EQ(n.gate(2).type, GateType::kNand);
  EXPECT_THROW(n.retype(2, GateType::kNot), std::invalid_argument);
}

TEST(Netlist, LevelsAreMonotone) {
  const Netlist n = small_chain();
  const auto levels = n.levels();
  ASSERT_TRUE(levels.has_value());
  EXPECT_EQ((*levels)[0], 0);
  EXPECT_EQ((*levels)[2], 1);
  EXPECT_EQ((*levels)[3], 2);
}

TEST(Netlist, TypeHistogram) {
  const Netlist n = small_chain();
  const auto hist = n.type_histogram();
  EXPECT_EQ(hist[static_cast<std::size_t>(GateType::kInput)], 2u);
  EXPECT_EQ(hist[static_cast<std::size_t>(GateType::kAnd)], 1u);
  EXPECT_EQ(hist[static_cast<std::size_t>(GateType::kNot)], 1u);
}

TEST(Netlist, SetOutputGateBounds) {
  Netlist n = small_chain();
  EXPECT_THROW(n.set_output_gate(5, 0), std::invalid_argument);
  EXPECT_THROW(n.set_output_gate(0, 99), std::invalid_argument);
  n.set_output_gate(0, 2);
  EXPECT_EQ(n.outputs()[0].gate, 2u);
  EXPECT_EQ(n.outputs()[0].name, "y");  // name preserved
}

TEST(Netlist, DuplicateFaninTopologicalOrder) {
  Netlist n;
  const GateId a = n.add_input("a");
  const GateId g = n.add_gate(GateType::kXor, {a, a}, "g");
  n.mark_output(g, "y");
  EXPECT_FALSE(n.is_cyclic());
  EXPECT_EQ(n.topo_span().size(), n.num_gates());
}

}  // namespace
}  // namespace fl::netlist

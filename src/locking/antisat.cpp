#include "locking/antisat.h"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "netlist/structure.h"

namespace fl::lock {

using netlist::GateId;
using netlist::GateType;

core::LockedCircuit antisat_lock(const netlist::Netlist& original,
                                 const AntiSatConfig& config) {
  if (original.num_outputs() == 0 || original.num_inputs() == 0) {
    throw std::invalid_argument("antisat: circuit needs inputs and outputs");
  }
  std::mt19937_64 rng(config.seed);
  core::LockedCircuit locked;
  locked.scheme = "antisat";
  locked.netlist = original;
  locked.netlist.set_name(original.name() + "_antisat");
  netlist::Netlist& net = locked.netlist;

  const int k = std::min<int>(config.block_inputs,
                              static_cast<int>(net.num_inputs()));
  std::uniform_int_distribution<int> coin(0, 1);

  // Correct key: K1 == K2 (any shared value).
  std::vector<bool> kshared(k);
  for (int i = 0; i < k; ++i) kshared[i] = coin(rng) == 1;

  std::vector<GateId> k1(k), k2(k);
  for (int i = 0; i < k; ++i) {
    k1[i] = net.add_key("keyinput_as1_" + std::to_string(i));
    locked.correct_key.push_back(kshared[i]);
  }
  for (int i = 0; i < k; ++i) {
    k2[i] = net.add_key("keyinput_as2_" + std::to_string(i));
    locked.correct_key.push_back(kshared[i]);
  }

  std::vector<GateId> left(k), right(k);
  for (int i = 0; i < k; ++i) {
    left[i] = net.add_gate(GateType::kXor, {net.inputs()[i], k1[i]});
    right[i] = net.add_gate(GateType::kXor, {net.inputs()[i], k2[i]});
  }
  // g(X xor K1) and g(X xor K2).
  const GateId g_left = netlist::balanced_tree(net, left, GateType::kAnd);
  const GateId g_right = netlist::balanced_tree(net, right, GateType::kAnd);
  const GateId g_right_n = net.add_gate(GateType::kNot, {g_right});
  const GateId y = net.add_gate(GateType::kAnd, {g_left, g_right_n});

  const GateId old_out = net.outputs()[0].gate;
  const GateId new_out = net.add_gate(GateType::kXor, {old_out, y});
  net.set_output_gate(0, new_out);
  return locked;
}

}  // namespace fl::lock

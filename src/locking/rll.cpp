#include "locking/rll.h"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "core/insertion.h"

namespace fl::lock {

using netlist::GateId;
using netlist::GateType;

core::LockedCircuit rll_lock(const netlist::Netlist& original,
                             const RllConfig& config) {
  std::mt19937_64 rng(config.seed);
  core::LockedCircuit locked;
  locked.scheme = "rll";
  locked.netlist = original;
  locked.netlist.set_name(original.name() + "_rll");
  netlist::Netlist& net = locked.netlist;

  // Lockable wires: any logic gate or PI with a reader.
  std::vector<GateId> wires = core::wires_with_readers(net);
  if (static_cast<int>(wires.size()) < config.num_keys) {
    throw std::invalid_argument("rll: not enough wires for requested keys");
  }
  std::shuffle(wires.begin(), wires.end(), rng);
  wires.resize(config.num_keys);

  std::uniform_int_distribution<int> coin(0, 1);
  for (int i = 0; i < config.num_keys; ++i) {
    const GateId w = wires[i];
    const GateId key = net.add_key("keyinput_rll" + std::to_string(i));
    const bool use_xnor = coin(rng) == 1;
    const GateId kg = net.add_gate(
        use_xnor ? GateType::kXnor : GateType::kXor, {w, key});
    // XOR passes the wire when key=0; XNOR when key=1.
    locked.correct_key.push_back(use_xnor);
    // Rewire all readers of w (but not the key gate itself).
    for (GateId g = 0; g < net.num_gates(); ++g) {
      if (g == kg) continue;
      net.replace_fanin_of(g, w, kg);
    }
    for (std::size_t oi = 0; oi < net.num_outputs(); ++oi) {
      if (net.outputs()[oi].gate == w) net.set_output_gate(oi, kg);
    }
  }
  return locked;
}

}  // namespace fl::lock

#include "locking/crosslock.h"

#include <algorithm>
#include <bit>
#include <random>
#include <stdexcept>

#include "core/insertion.h"

namespace fl::lock {

using netlist::GateId;
using netlist::GateType;

namespace {

// MUX tree over `leaves` (size 2^depth) selecting with `selects`
// (LSB-first; leaf index bit i = selects[i]).
GateId mux_tree(netlist::Netlist& net, const std::vector<GateId>& leaves,
                const std::vector<GateId>& selects, std::size_t lo,
                std::size_t hi, int depth) {
  if (depth < 0) return leaves[lo];
  const std::size_t mid = lo + (hi - lo) / 2;
  const GateId low = mux_tree(net, leaves, selects, lo, mid, depth - 1);
  const GateId high = mux_tree(net, leaves, selects, mid, hi, depth - 1);
  if (low == high) return low;
  return net.add_gate(GateType::kMux, {selects[depth], low, high});
}

}  // namespace

core::LockedCircuit crosslock_lock(const netlist::Netlist& original,
                                   const CrossLockConfig& config) {
  if (config.num_sources < 2) {
    throw std::invalid_argument("crosslock: need >= 2 sources");
  }
  std::mt19937_64 rng(config.seed);
  core::LockedCircuit locked;
  locked.scheme = "cross-lock";
  locked.netlist = original;
  locked.netlist.set_name(original.name() + "_crosslock");
  netlist::Netlist& net = locked.netlist;
  const int n = config.num_sources;

  // Antichain wire selection (no selected wire reaches another), so the
  // all-to-all crossbar cannot close a combinational cycle.
  const std::vector<GateId> wires =
      core::antichain_wires(net, core::wires_with_readers(net), n, rng);
  if (static_cast<int>(wires.size()) < n) {
    throw std::invalid_argument("crosslock: not enough antichain wires");
  }

  // Destination pins: readers of the selected wires.
  std::vector<core::Reader> pins = core::find_readers(net, wires);
  std::shuffle(pins.begin(), pins.end(), rng);
  if (static_cast<int>(pins.size()) > config.num_destinations) {
    pins.resize(config.num_destinations);
  }

  // Pad the leaf array to a power of two by cycling the sources.
  const int bits = std::bit_width(static_cast<unsigned>(n - 1));
  const std::size_t padded = std::size_t{1} << bits;
  std::vector<GateId> leaves(padded);
  for (std::size_t i = 0; i < padded; ++i) leaves[i] = wires[i % n];

  int key_counter = 0;
  for (std::size_t d = 0; d < pins.size(); ++d) {
    std::vector<GateId> selects(bits);
    for (int b = 0; b < bits; ++b) {
      selects[b] = net.add_key("keyinput_xb" + std::to_string(key_counter++));
      locked.correct_key.push_back(((pins[d].wire >> b) & 1) != 0);
    }
    const GateId out =
        mux_tree(net, leaves, selects, 0, padded, bits - 1);
    // Removal-attack hint: one single-output block per destination tree.
    core::RoutingBlockHint hint;
    hint.block_inputs.assign(wires.begin(), wires.end());
    hint.block_outputs = {out};
    hint.permutation = {pins[d].wire};
    hint.inverted = {false};
    locked.routing_blocks.push_back(std::move(hint));
    core::rewire(net, pins[d], out);
  }

  return locked;
}

}  // namespace fl::lock

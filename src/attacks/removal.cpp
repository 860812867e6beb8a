#include "attacks/removal.h"

#include "core/verify.h"

namespace fl::attacks {

using netlist::GateId;

RemovalResult removal_attack(const core::LockedCircuit& locked,
                             const netlist::Netlist& original, int rounds,
                             std::uint64_t seed) {
  RemovalResult result;
  result.recovered = locked.netlist;
  for (const core::RoutingBlockHint& hint : locked.routing_blocks) {
    const std::size_t n = hint.block_outputs.size();
    for (std::size_t j = 0; j < n; ++j) {
      const GateId out = hint.block_outputs[j];
      const GateId src = hint.block_inputs[hint.permutation[j]];
      if (out == netlist::kNullGate || src == netlist::kNullGate) continue;
      // Wire consumers of the network output directly to the routed source,
      // skipping the MUX fabric and the inverter layer.
      result.recovered.replace_net(out, src);
    }
    ++result.blocks_bypassed;
  }
  // Most generous grading: the attacker even knows the correct values for
  // all remaining key inputs (e.g. LUT truth tables).
  result.error_rate = core::error_rate(original, result.recovered,
                                       locked.correct_key, rounds, seed);
  result.exact = result.error_rate == 0.0;
  return result;
}

}  // namespace fl::attacks

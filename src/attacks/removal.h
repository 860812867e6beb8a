// Removal attack (§4.2.2): models the *strongest* removal adversary — one
// who has located every inserted routing block AND recovered its correct
// permutation — and bypasses the blocks by wiring each network output
// straight to its routed source wire.
//
// Against a routing-only interconnect lock this recovers the circuit
// exactly. Against Full-Lock it fails: the leading gates were negated (the
// bypass skips the key-configurable inverters that undo the negation), so
// the recovered netlist mis-computes even with all remaining (LUT) keys set
// correctly.
#pragma once

#include <cstdint>

#include "core/locked_circuit.h"

namespace fl::attacks {

struct RemovalResult {
  netlist::Netlist recovered;   // blocks bypassed; key inputs remain
  double error_rate = 1.0;      // vs original, remaining keys set correctly
  bool exact = false;           // error_rate == 0 (attack succeeded)
  int blocks_bypassed = 0;
};

// Reads the routing hints' secret permutation and the correct key by
// design, so it takes the LockedCircuit and runs outside attacks::run; it
// grades the bypassed netlist against `original` and queries no oracle.
RemovalResult removal_attack(const core::LockedCircuit& locked,
                             const netlist::Netlist& original,
                             int rounds = 16, std::uint64_t seed = 1);

}  // namespace fl::attacks

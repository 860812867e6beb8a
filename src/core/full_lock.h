// Full-Lock: the paper's top-level locking transform.
//
// Inserts one or more PLRs (CLN routing network + key-configurable
// inverters + key-programmable LUTs) into a netlist and returns the locked
// circuit together with its correct key.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/insertion.h"
#include "core/locked_circuit.h"

namespace fl::core {

struct FullLockConfig {
  std::vector<PlrConfig> plrs;  // one entry per PLR to insert
  std::uint64_t seed = 1;
  // Lower the host to 2-input gates before inserting PLRs (§3.2): every
  // twisted consumer then becomes a 4-entry LUT, minimizing STT-LUT cost.
  bool decompose_two_input = false;

  // Convenience: k PLRs with n-input CLNs sharing common settings, e.g.
  // FullLockConfig::with_plrs({16, 16, 8}).
  static FullLockConfig with_plrs(std::vector<int> cln_sizes,
                                  ClnTopology topology =
                                      ClnTopology::kBanyanNonBlocking,
                                  CycleMode cycle_mode = CycleMode::kAvoid,
                                  bool twist_luts = true,
                                  double negate_probability = 0.5,
                                  std::uint64_t seed = 1);
};

struct FullLockReport {
  int num_plrs = 0;
  int num_luts = 0;
  int num_negated_drivers = 0;
  std::size_t key_bits = 0;
};

// Locks a copy of `original`. Throws std::invalid_argument if the circuit
// has too few wires for a requested CLN size.
LockedCircuit full_lock(const netlist::Netlist& original,
                        const FullLockConfig& config,
                        FullLockReport* report = nullptr);

// The block loop of Full-Lock and InterLock: renames `host` to
// `host.name() + suffix`, inserts blocks 0..count-1 with `insert(netlist,
// b)` and concatenates their keys and hints in block order. Then strips the
// dead gates LUT replacement leaves behind and remaps the hints onto the
// compacted ids. The report sums the insertions' counts.
LockedCircuit insert_blocks(
    netlist::Netlist host, const std::string& scheme,
    const std::string& suffix, std::size_t count,
    const std::function<PlrInsertion(netlist::Netlist&, std::size_t)>& insert,
    FullLockReport* report);

}  // namespace fl::core

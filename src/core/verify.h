// Verification and corruption metrics for locked circuits.
#pragma once

#include <cstdint>
#include <random>

#include "core/locked_circuit.h"

namespace fl::core {

enum class KeyCheck { kProved, kSimulated, kRefuted };
const char* to_string(KeyCheck check);  // "proved", "simulated", "refuted"

// The one check of every key the front ends report. A key of the wrong
// width, PI/PO counts that differ, or an `original` with key inputs is
// refuted. Otherwise cnf::check_equivalence proves or refutes the key, on a
// cyclic lock over the netlist the key specialises it to. Only when a cycle
// survives the key, so that no proof runs, does
// verify_unlocks(original, locked, key, 16, 1) pick simulated or refuted.
KeyCheck check_key(const netlist::Netlist& original,
                   const netlist::Netlist& locked,
                   const std::vector<bool>& key);

// Checks that `locked` under `key` matches `original` on `rounds` x 64
// random patterns (relaxation simulation if the locked netlist is cyclic).
// A sample, not a proof: check_key proves a key.
bool verify_unlocks(const netlist::Netlist& original,
                    const netlist::Netlist& locked,
                    const std::vector<bool>& key, int rounds,
                    std::uint64_t seed);

// Fraction of (pattern, output-bit) pairs that differ from the original
// under `key`, over `rounds` x 64 random patterns. Patterns that fail to
// converge (cyclic oscillation) count as fully corrupted.
double error_rate(const netlist::Netlist& original,
                  const netlist::Netlist& locked, const std::vector<bool>& key,
                  int rounds, std::uint64_t seed);

// Average error rate over `num_keys` uniformly random keys — the paper's
// "output corruption" claim (Full-Lock corrupts heavily under wrong keys,
// unlike SARLock/Anti-SAT point functions).
struct CorruptionStats {
  double mean_error_rate = 0.0;
  double min_error_rate = 1.0;
  double max_error_rate = 0.0;
  int keys_sampled = 0;
};
CorruptionStats output_corruption(const netlist::Netlist& original,
                                  const LockedCircuit& locked, int num_keys,
                                  int rounds_per_key, std::uint64_t seed);

}  // namespace fl::core

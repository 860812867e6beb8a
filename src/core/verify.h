// Verification and corruption metrics for locked circuits.
#pragma once

#include <cstdint>
#include <random>

#include "core/locked_circuit.h"

namespace fl::core {

// Checks that `locked` under `key` matches `original` on `rounds` x 64
// random patterns (relaxation simulation if the locked netlist is cyclic).
// A sample, not a proof: cnf::check_equivalence proves a key.
bool verify_unlocks(const netlist::Netlist& original,
                    const netlist::Netlist& locked,
                    const std::vector<bool>& key, int rounds,
                    std::uint64_t seed);

inline bool verify_unlocks(const netlist::Netlist& original,
                           const LockedCircuit& locked, int rounds,
                           std::uint64_t seed) {
  return verify_unlocks(original, locked.netlist, locked.correct_key, rounds,
                        seed);
}

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

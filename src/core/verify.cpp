#include "core/verify.h"

#include <bit>
#include <stdexcept>

#include "cnf/miter.h"
#include "netlist/simulator.h"

namespace fl::core {

using netlist::Netlist;
using netlist::Word;

namespace {

// Compares `locked` under `key` with `original` on `rounds` x 64 random
// patterns and returns (#differing output bits, #output bits). The pattern
// matrix is drawn round by round; the original runs through the batch
// engine and the locked netlist through whichever engine fits it. Lanes
// that do not settle (cyclic oscillation) count as wrong on every output.
std::pair<std::uint64_t, std::uint64_t> diff_outputs(
    const Netlist& original, const Netlist& locked,
    const std::vector<bool>& key, int rounds, std::uint64_t seed) {
  const std::size_t n_in = original.num_inputs();
  const std::size_t n_words = static_cast<std::size_t>(rounds < 0 ? 0 : rounds);
  std::mt19937_64 rng(seed);
  std::vector<Word> inputs(n_in * n_words);
  for (std::size_t r = 0; r < n_words; ++r) {
    for (std::size_t i = 0; i < n_in; ++i) inputs[i * n_words + r] = rng();
  }
  netlist::Simulator::Scratch scratch;
  std::vector<Word> expected(original.num_outputs() * n_words);
  netlist::Simulator(original).run_batch(inputs, {}, n_words, scratch,
                                         expected);
  const netlist::SimResult got =
      netlist::simulate(locked, inputs, netlist::broadcast(key), n_words);
  std::uint64_t diff = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    diff += std::popcount((expected[i] ^ got.outputs[i]) |
                          ~got.converged[i % n_words]);
  }
  return {diff, expected.size() * 64};
}

}  // namespace

const char* to_string(KeyCheck check) {
  switch (check) {
    case KeyCheck::kProved: return "proved";
    case KeyCheck::kSimulated: return "simulated";
    case KeyCheck::kRefuted: return "refuted";
  }
  return "?";
}

KeyCheck check_key(const Netlist& original, const Netlist& locked,
                   const std::vector<bool>& key) {
  if (key.size() != locked.num_keys() || original.num_keys() != 0 ||
      original.num_inputs() != locked.num_inputs() ||
      original.num_outputs() != locked.num_outputs()) {
    return KeyCheck::kRefuted;
  }
  try {
    return cnf::check_equivalence(original, {}, locked, key)
               ? KeyCheck::kProved
               : KeyCheck::kRefuted;
  } catch (const std::invalid_argument&) {
    // The interface and key width fit, so the proof refused a cycle the
    // key leaves standing.
    return verify_unlocks(original, locked, key, 16, 1) ? KeyCheck::kSimulated
                                                       : KeyCheck::kRefuted;
  }
}

bool verify_unlocks(const Netlist& original, const Netlist& locked,
                    const std::vector<bool>& key, int rounds,
                    std::uint64_t seed) {
  if (original.num_inputs() != locked.num_inputs() ||
      original.num_outputs() != locked.num_outputs()) {
    return false;
  }
  return diff_outputs(original, locked, key, rounds, seed).first == 0;
}

double error_rate(const Netlist& original, const Netlist& locked,
                  const std::vector<bool>& key, int rounds, std::uint64_t seed) {
  const auto [diff, total] = diff_outputs(original, locked, key, rounds, seed);
  return total == 0 ? 0.0 : static_cast<double>(diff) / total;
}

CorruptionStats output_corruption(const Netlist& original,
                                  const LockedCircuit& locked, int num_keys,
                                  int rounds_per_key, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  CorruptionStats stats;
  for (int k = 0; k < num_keys; ++k) {
    std::vector<bool> key(locked.correct_key.size());
    for (std::size_t i = 0; i < key.size(); ++i) key[i] = (rng() & 1) != 0;
    if (key == locked.correct_key) continue;  // want wrong keys only
    const double e =
        error_rate(original, locked.netlist, key, rounds_per_key, rng());
    stats.mean_error_rate += e;
    stats.min_error_rate = std::min(stats.min_error_rate, e);
    stats.max_error_rate = std::max(stats.max_error_rate, e);
    ++stats.keys_sampled;
  }
  if (stats.keys_sampled > 0) stats.mean_error_rate /= stats.keys_sampled;
  return stats;
}

}  // namespace fl::core

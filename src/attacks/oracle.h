// Activated-chip oracle: the attacker's black-box access to a functional
// (unlocked) IC. Counts queries, as oracle access is the scarce resource in
// the threat model.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "netlist/simulator.h"

namespace fl::attacks {

class Oracle {
 public:
  // `original` must be key-free and acyclic.
  explicit Oracle(netlist::Netlist original);

  // Single-pattern query. Counts as 1 query.
  std::vector<bool> query(const std::vector<bool>& input) const;

  // Bit-parallel batch (one word per input net, up to 64 patterns packed).
  // `n_patterns` (1..64) is how many bit lanes actually carry patterns;
  // exactly that many queries are charged.
  std::vector<netlist::Word> query_words(std::span<const netlist::Word> inputs,
                                         std::size_t n_patterns) const;

  // Wide batch over net-major matrices: inputs[i * n_words + w] is word w of
  // input i (inputs.size() == num_inputs * n_words) and outputs is written
  // likewise (num_outputs * n_words). Charges `n_patterns` queries
  // (n_patterns <= n_words * 64). Runs through the SIMD simulator with a
  // thread_local scratch, so repeated large batches do not allocate.
  void query_batch(std::span<const netlist::Word> inputs, std::size_t n_words,
                   std::size_t n_patterns,
                   std::span<netlist::Word> outputs) const;

  std::uint64_t num_queries() const {
    return queries_.load(std::memory_order_relaxed);
  }
  const netlist::Netlist& circuit() const { return original_; }

 private:
  netlist::Netlist original_;
  netlist::Simulator simulator_;
  // Atomic so one oracle can serve concurrent attacks (parallel sweep
  // jobs); Simulator::run is const with per-call scratch.
  mutable std::atomic<std::uint64_t> queries_{0};
};

}  // namespace fl::attacks

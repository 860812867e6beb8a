// Activated-chip oracle: the attacker's black-box access to a functional
// (unlocked) IC. Counts queries, as oracle access is the scarce resource in
// the threat model.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "netlist/simulator.h"

namespace fl::attacks {

class Oracle {
 public:
  // `original` must be key-free and acyclic.
  explicit Oracle(netlist::Netlist original);

  // Single-pattern query: a one-word query_batch. Counts as 1 query.
  std::vector<bool> query(const std::vector<bool>& input) const;

  // Batch over net-major matrices: inputs[i * n_words + w] is word w of
  // input i (inputs.size() == num_inputs * n_words) and outputs is written
  // likewise (num_outputs * n_words). Charges `n_patterns` queries, which
  // must be in 1..n_words * 64; a rejected call charges nothing. Runs
  // through the SIMD simulator with the oracle's own scratch.
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
  // One oracle may serve concurrent attacks (parallel sweep jobs): the
  // counter is atomic and the mutex guards the scratch. Every oracle is
  // built per attack or per sweep cell, so the lock is never contended. The
  // scratch is allocated by the first query and freed with the oracle.
  mutable std::atomic<std::uint64_t> queries_{0};
  mutable std::mutex scratch_mu_;
  mutable netlist::Simulator::Scratch scratch_;
};

}  // namespace fl::attacks

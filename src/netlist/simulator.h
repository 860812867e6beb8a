// Bit-parallel logic simulation: 64 patterns per word, and a wide batch
// engine sweeping simd::kSimdBits (512) patterns per pass.
//
// Engines:
//  * Simulator::run_batch — the acyclic engine: one topological sweep per
//    simd block of words through SIMD block kernels (AVX2 / AVX-512 /
//    portable, see simd.h) and a caller-held Scratch, so repeated calls do
//    not allocate. A single pattern is a one-word batch.
//  * simulate_cyclic — structurally cyclic netlists (Full-Lock's cyclic PLR
//    insertion), Gauss-Seidel relaxation to a fixpoint with oscillation
//    detection. Patterns that fail to converge are flagged; callers treat
//    them as corrupted outputs.
//  * simulate — the one place the engine is chosen: run_batch on an acyclic
//    netlist, simulate_cyclic word by word on a cyclic one.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "netlist/simd.h"

namespace fl::netlist {

using Word = std::uint64_t;

// Evaluates one gate over bit-parallel fanin words.
Word eval_gate(GateType type, std::span<const Word> fanin);

// Acyclic simulator. Construction captures the (cached) topological order;
// call run_batch() many times with different stimuli. Throws
// std::invalid_argument if the netlist is cyclic.
class Simulator {
 public:
  explicit Simulator(const Netlist& netlist);

  // Reusable per-caller storage for run_batch(). One Scratch per thread:
  // the same object may be passed to any Simulator (it resizes to the
  // largest netlist it has served).
  struct Scratch {
    std::vector<Word> value;  // gate-major block values
  };

  // Batch run over n_words words (64 patterns each) per net, laid out
  // net-major: inputs[i * n_words + w] is word w of primary input i, and
  // outputs[o * n_words + w] is written likewise (outputs.size() must be
  // num_outputs() * n_words). Sweeps the netlist once per simd block of
  // simd::kSimdWords words; all intermediate values live in `scratch`.
  void run_batch(std::span<const Word> inputs, std::span<const Word> keys,
                 std::size_t n_words, Scratch& scratch,
                 std::span<Word> outputs) const;

 private:
  const Netlist& netlist_;
  std::vector<GateId> order_;
};

struct CyclicSimResult {
  std::vector<Word> outputs;  // one word per output port
  Word converged = ~Word{0};  // per-pattern convergence mask (1 = settled)
};

// Relaxation simulation for possibly-cyclic netlists. All nets start at 0
// (or 1 with `init_ones` — comparing both fixpoints detects state-holding
// cycles); gates are re-evaluated in id order until a fixpoint or
// `max_sweeps`.
CyclicSimResult simulate_cyclic(const Netlist& netlist,
                                std::span<const Word> inputs,
                                std::span<const Word> keys,
                                long long max_sweeps = 0 /* 0 = #gates + 8 */,
                                bool init_ones = false);

struct SimResult {
  std::vector<Word> outputs;    // net-major: outputs[o * n_words + w]
  std::vector<Word> converged;  // one mask per word (1 = the lane settled)
};

// Simulates `n_words` words (64 patterns each) per primary input of any
// netlist, laid out net-major as for Simulator::run_batch, with one word per
// key broadcast across the batch. Runs Simulator::run_batch when the netlist
// is acyclic (every lane settles) and simulate_cyclic one word at a time
// when it is not; callers count unsettled lanes as corrupted outputs.
SimResult simulate(const Netlist& netlist, std::span<const Word> inputs,
                   std::span<const Word> keys, std::size_t n_words);

// Each bit as a whole word: all 64 lanes carry the same value.
std::vector<Word> broadcast(const std::vector<bool>& bits);

// Convenience single-pattern evaluation (bools in input order).
std::vector<bool> eval_once(const Netlist& netlist,
                            const std::vector<bool>& inputs,
                            const std::vector<bool>& keys);

}  // namespace fl::netlist

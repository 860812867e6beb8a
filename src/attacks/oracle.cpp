#include "attacks/oracle.h"

#include <stdexcept>

namespace fl::attacks {

using netlist::Word;

Oracle::Oracle(netlist::Netlist original)
    : original_(std::move(original)), simulator_(original_) {
  if (original_.num_keys() != 0) {
    throw std::invalid_argument("oracle circuit must be key-free");
  }
}

std::vector<bool> Oracle::query(const std::vector<bool>& input) const {
  std::vector<Word> out(original_.num_outputs());
  query_batch(netlist::broadcast(input), 1, 1, out);
  std::vector<bool> result(out.size());
  for (std::size_t o = 0; o < out.size(); ++o) result[o] = (out[o] & 1) != 0;
  return result;
}

void Oracle::query_batch(std::span<const Word> inputs, std::size_t n_words,
                         std::size_t n_patterns,
                         std::span<Word> outputs) const {
  if (n_patterns == 0 || n_patterns > n_words * 64) {
    throw std::invalid_argument(
        "query_batch: n_patterns must be in 1..n_words*64");
  }
  if (inputs.size() != original_.num_inputs() * n_words ||
      outputs.size() != original_.num_outputs() * n_words) {
    throw std::invalid_argument("oracle query width mismatch");
  }
  queries_.fetch_add(n_patterns, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(scratch_mu_);
  simulator_.run_batch(inputs, {}, n_words, scratch_, outputs);
}

}  // namespace fl::attacks

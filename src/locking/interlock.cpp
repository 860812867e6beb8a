#include "locking/interlock.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "core/full_lock.h"

namespace fl::lock {

using netlist::GateId;
using netlist::Netlist;

InterLockConfig InterLockConfig::with_blocks(std::vector<int> cln_sizes,
                                             double fold_fraction,
                                             double negate_probability,
                                             std::uint64_t seed) {
  InterLockConfig config;
  config.seed = seed;
  for (const int n : cln_sizes) {
    InterLockBlockConfig block;
    block.cln.n = n;
    block.fold_fraction = fold_fraction;
    block.negate_probability = negate_probability;
    config.blocks.push_back(block);
  }
  return config;
}

namespace {

// One routing block: a PLR's routing part over an antichain of wires, then
// a subset of the consuming gates folded into the block as key LUTs.
core::PlrInsertion insert_block(Netlist& netlist,
                                const InterLockBlockConfig& config,
                                std::mt19937_64& rng,
                                const std::string& prefix) {
  core::RoutedBlock block =
      core::route_wires(netlist, config.cln, core::CycleMode::kAvoid,
                        config.negate_probability, rng, prefix);

  // Fold consumers into the block: for a random subset of the outputs, one
  // consuming gate becomes a key-programmable LUT whose truth table is part
  // of the block configuration. The LUT root is listed as an extra block
  // output routed from the same source wire, so the removal attack's
  // block-bypass loses the folded gate's function along with the fabric.
  const int n = config.cln.n;
  std::vector<int> fold_order(n);
  for (int j = 0; j < n; ++j) fold_order[j] = j;
  std::shuffle(fold_order.begin(), fold_order.end(), rng);
  const int fold_target = static_cast<int>(
      std::lround(config.fold_fraction * static_cast<double>(n)));
  core::RoutingBlockHint& hint = block.insertion.hint;
  for (const int j : fold_order) {
    if (block.insertion.num_luts >= fold_target) break;
    const int source = hint.permutation[j];
    for (const core::Reader& r : block.readers[source]) {
      const GateId root =
          core::twist_reader(netlist, block, r, prefix + "_fold");
      if (root == netlist::kNullGate) continue;
      hint.block_outputs.push_back(root);
      hint.permutation.push_back(source);
      hint.inverted.push_back(false);
      break;  // one folded consumer per output
    }
  }
  return core::finish_block(std::move(block));
}

}  // namespace

core::LockedCircuit interlock_lock(const Netlist& original,
                                   const InterLockConfig& config,
                                   InterLockReport* report) {
  std::mt19937_64 rng(config.seed);
  core::FullLockReport totals;
  core::LockedCircuit locked = core::insert_blocks(
      original, "interlock", "_interlock", config.blocks.size(),
      [&](Netlist& netlist, std::size_t b) {
        return insert_block(netlist, config.blocks[b], rng,
                            "ilb" + std::to_string(b));
      },
      &totals);
  if (report != nullptr) {
    report->num_blocks = totals.num_plrs;
    report->num_folded_gates = totals.num_luts;
    report->num_negated_drivers = totals.num_negated_drivers;
    report->key_bits = totals.key_bits;
  }
  return locked;
}

}  // namespace fl::lock

#include "core/full_lock.h"

#include <random>

#include "netlist/structure.h"

namespace fl::core {

using netlist::GateId;
using netlist::Netlist;

FullLockConfig FullLockConfig::with_plrs(std::vector<int> cln_sizes,
                                         ClnTopology topology,
                                         CycleMode cycle_mode, bool twist_luts,
                                         double negate_probability,
                                         std::uint64_t seed) {
  FullLockConfig config;
  config.seed = seed;
  for (const int n : cln_sizes) {
    PlrConfig plr;
    plr.cln.n = n;
    plr.cln.topology = topology;
    plr.cycle_mode = cycle_mode;
    plr.twist_luts = twist_luts;
    plr.negate_probability = negate_probability;
    config.plrs.push_back(plr);
  }
  return config;
}

LockedCircuit full_lock(const Netlist& original, const FullLockConfig& config,
                        FullLockReport* report) {
  std::mt19937_64 rng(config.seed);
  return insert_blocks(
      config.decompose_two_input ? netlist::decompose_to_two_input(original)
                                 : original,
      "full-lock", "_fulllock", config.plrs.size(),
      [&](Netlist& netlist, std::size_t p) {
        return insert_plr(netlist, config.plrs[p], rng,
                          "plr" + std::to_string(p));
      },
      report);
}

LockedCircuit insert_blocks(
    Netlist host, const std::string& scheme, const std::string& suffix,
    std::size_t count,
    const std::function<PlrInsertion(Netlist&, std::size_t)>& insert,
    FullLockReport* report) {
  LockedCircuit locked;
  locked.scheme = scheme;
  host.set_name(host.name() + suffix);
  locked.netlist = std::move(host);

  FullLockReport rep;
  for (std::size_t b = 0; b < count; ++b) {
    PlrInsertion insertion = insert(locked.netlist, b);
    locked.correct_key.insert(locked.correct_key.end(),
                              insertion.added_key_values.begin(),
                              insertion.added_key_values.end());
    locked.routing_blocks.push_back(std::move(insertion.hint));
    ++rep.num_plrs;
    rep.num_luts += insertion.num_luts;
    rep.num_negated_drivers += insertion.num_negated_drivers;
  }

  // Strip the dead originals left behind by LUT replacement, remapping the
  // removal-attack hints onto the compacted ids.
  std::vector<GateId> remap;
  locked.netlist = netlist::compact(locked.netlist, &remap);
  for (RoutingBlockHint& hint : locked.routing_blocks) {
    for (GateId& g : hint.block_inputs) g = remap[g];
    for (GateId& g : hint.block_outputs) g = remap[g];
  }

  rep.key_bits = locked.correct_key.size();
  if (report != nullptr) *report = rep;
  return locked;
}

}  // namespace fl::core

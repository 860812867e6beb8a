#include "core/insertion.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "core/plr.h"
#include "netlist/structure.h"

namespace fl::core {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

namespace {

bool negatable_gate(GateType type) {
  switch (type) {
    case GateType::kAnd:
    case GateType::kNand:
    case GateType::kOr:
    case GateType::kNor:
    case GateType::kXor:
    case GateType::kXnor:
    case GateType::kBuf:
    case GateType::kNot:
      return true;
    default:
      return false;
  }
}

GateType negated_gate_type(GateType type) {
  switch (type) {
    case GateType::kAnd: return GateType::kNand;
    case GateType::kNand: return GateType::kAnd;
    case GateType::kOr: return GateType::kNor;
    case GateType::kNor: return GateType::kOr;
    case GateType::kXor: return GateType::kXnor;
    case GateType::kXnor: return GateType::kXor;
    case GateType::kBuf: return GateType::kNot;
    case GateType::kNot: return GateType::kBuf;
    default: throw std::logic_error("gate type is not negatable");
  }
}

// Wires eligible to feed a CLN: wires with a reader that are live (they
// feed some primary output — otherwise the rerouted/negated wire would be
// functionally invisible) and that no key reaches (a previously inserted
// PLR: PLRs lock the original logic, not each other).
std::vector<GateId> candidate_wires(const Netlist& netlist) {
  const std::vector<bool> live = netlist::live_gates(netlist);
  const std::vector<bool> keyed = netlist.fanout_cone(netlist.keys());
  std::vector<GateId> wires = wires_with_readers(netlist);
  std::erase_if(wires, [&](GateId g) { return !live[g] || keyed[g]; });
  return wires;
}

std::vector<GateId> select_routing_wires(const Netlist& netlist, int n,
                                         CycleMode mode,
                                         std::mt19937_64& rng) {
  std::vector<GateId> candidates = candidate_wires(netlist);
  if (static_cast<int>(candidates.size()) < n) {
    throw std::invalid_argument("not enough candidate wires for PLR");
  }
  if (mode == CycleMode::kAvoid) {
    std::vector<GateId> chosen =
        antichain_wires(netlist, std::move(candidates), n, rng);
    if (static_cast<int>(chosen.size()) < n) {
      throw std::invalid_argument(
          "could not select enough wires under the cycle-mode constraint");
    }
    return chosen;
  }
  std::shuffle(candidates.begin(), candidates.end(), rng);
  if (mode == CycleMode::kAllow) {
    candidates.resize(n);
    return candidates;
  }
  // kForce: a comparable pair (a reaches b) so the rewiring closes a cycle,
  // then the other candidates in order.
  netlist::Reachability reach(netlist);
  std::vector<GateId> chosen;
  for (std::size_t i = 0; i < candidates.size() && chosen.empty(); ++i) {
    for (std::size_t j = 0; j < candidates.size(); ++j) {
      if (i == j) continue;
      if (reach.reaches(candidates[i], candidates[j])) {
        chosen.push_back(candidates[i]);
        chosen.push_back(candidates[j]);
        break;
      }
    }
  }
  if (chosen.empty()) {
    throw std::invalid_argument("no comparable wire pair; cannot force cycle");
  }
  for (const GateId c : candidates) {
    if (static_cast<int>(chosen.size()) == n) break;
    if (std::find(chosen.begin(), chosen.end(), c) == chosen.end()) {
      chosen.push_back(c);
    }
  }
  chosen.resize(n);
  return chosen;
}

}  // namespace

std::vector<Reader> find_readers(const Netlist& netlist,
                                 std::span<const GateId> wires) {
  const auto wire_of = [&wires](GateId g) {
    return static_cast<int>(std::find(wires.begin(), wires.end(), g) -
                            wires.begin());
  };
  const int none = static_cast<int>(wires.size());
  std::vector<Reader> readers;
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    const netlist::Gate& gate = netlist.gate(g);
    for (std::size_t pin = 0; pin < gate.fanin.size(); ++pin) {
      const int w = wire_of(gate.fanin[pin]);
      if (w != none) readers.push_back(Reader{g, pin, w});
    }
  }
  for (std::size_t oi = 0; oi < netlist.num_outputs(); ++oi) {
    const int w = wire_of(netlist.outputs()[oi].gate);
    if (w != none) readers.push_back(Reader{netlist::kNullGate, oi, w});
  }
  return readers;
}

void rewire(Netlist& netlist, const Reader& reader, GateId source) {
  if (reader.gate == netlist::kNullGate) {
    netlist.set_output_gate(reader.slot, source);
    return;
  }
  std::vector<GateId> fanin = netlist.gate(reader.gate).fanin_vector();
  fanin[reader.slot] = source;
  netlist.set_fanin(reader.gate, std::move(fanin));
}

std::vector<GateId> wires_with_readers(const Netlist& netlist) {
  std::vector<bool> is_output(netlist.num_gates(), false);
  for (const netlist::OutputPort& o : netlist.outputs()) {
    is_output[o.gate] = true;
  }
  std::vector<GateId> wires;
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    const GateType t = netlist.gate(g).type;
    if (t == GateType::kKey || t == GateType::kConst0 ||
        t == GateType::kConst1) {
      continue;
    }
    if (netlist.fanout(g).empty() && !is_output[g]) continue;
    wires.push_back(g);
  }
  return wires;
}

std::vector<GateId> antichain_wires(const Netlist& netlist,
                                    std::vector<GateId> candidates, int n,
                                    std::mt19937_64& rng) {
  // Greedy over a random order, reshuffled when a pass falls short: narrow
  // circuits may need several tries.
  constexpr int kPasses = 32;
  netlist::Reachability reach(netlist);
  std::vector<GateId> chosen;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::shuffle(candidates.begin(), candidates.end(), rng);
    chosen.clear();
    for (const GateId c : candidates) {
      if (static_cast<int>(chosen.size()) == n) break;
      bool comparable = false;
      for (const GateId s : chosen) {
        if (reach.reaches(s, c) || reach.reaches(c, s)) {
          comparable = true;
          break;
        }
      }
      if (!comparable) chosen.push_back(c);
    }
    if (static_cast<int>(chosen.size()) == n) break;
  }
  return chosen;
}

RoutedBlock route_wires(Netlist& netlist, const ClnConfig& cln_config,
                        CycleMode cycle_mode, double negate_probability,
                        std::mt19937_64& rng, const std::string& name_prefix) {
  if (negate_probability > 0.0 && !cln_config.with_inverters) {
    throw std::invalid_argument(
        "leading-gate negation requires the CLN inverter layer");
  }
  const int n = cln_config.n;
  const std::vector<GateId> wires =
      select_routing_wires(netlist, n, cycle_mode, rng);

  // Record every reader of each selected wire before any edit.
  RoutedBlock block;
  block.readers.resize(n);
  for (const Reader& r : find_readers(netlist, wires)) {
    block.readers[r.wire].push_back(r);
  }
  PlrInsertion& result = block.insertion;
  result.selected_wires.assign(wires.begin(), wires.end());

  // Negate a random subset of the leading (driver) gates; the CLN's inverter
  // layer will undo the negation under the correct key.
  std::vector<bool> negated(n, false);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (int i = 0; i < n; ++i) {
    if (negatable_gate(netlist.gate(wires[i]).type) &&
        coin(rng) < negate_probability) {
      netlist.retype(wires[i], negated_gate_type(netlist.gate(wires[i]).type));
      negated[i] = true;
      ++result.num_negated_drivers;
    }
  }

  // Build the CLN fed by the selected wires.
  const ClnBuilder builder(cln_config);
  const ClnInstance cln = builder.build(netlist, wires, name_prefix);

  // Choose the correct routing key, derive the realized permutation, and set
  // the inverter bits to absorb the driver negations.
  result.added_key_values = builder.random_routing_key(rng);
  const std::vector<int> perm = cln.trace_permutation(result.added_key_values);
  std::vector<bool> inverter_key(n, false);
  if (cln_config.with_inverters) {
    for (int j = 0; j < n; ++j) inverter_key[j] = negated[perm[j]];
    result.added_key_values.insert(result.added_key_values.end(),
                                   inverter_key.begin(), inverter_key.end());
  }

  // Rewire: readers of wire perm[j] now read CLN output j.
  for (int j = 0; j < n; ++j) {
    for (const Reader& r : block.readers[perm[j]]) {
      rewire(netlist, r, cln.outputs[j]);
    }
  }

  result.hint.block_inputs = wires;
  result.hint.block_outputs = cln.outputs;
  result.hint.permutation = perm;
  result.hint.inverted = std::move(inverter_key);
  return block;
}

GateId twist_reader(Netlist& netlist, RoutedBlock& block, const Reader& reader,
                    const std::string& stem) {
  if (reader.gate == netlist::kNullGate || block.luts.count(reader.gate) != 0 ||
      !lut_replaceable(netlist, reader.gate)) {
    return netlist::kNullGate;
  }
  PlrInsertion& result = block.insertion;
  const KeyLutResult lut = replace_with_key_lut(
      netlist, reader.gate, stem + std::to_string(result.num_luts));
  block.luts[reader.gate] = lut.root;
  result.added_key_values.insert(result.added_key_values.end(),
                                 lut.correct_key.begin(),
                                 lut.correct_key.end());
  ++result.num_luts;
  return lut.root;
}

PlrInsertion finish_block(RoutedBlock block) {
  // In cyclic modes a selected wire may itself read another and be
  // replaced; its LUT now drives the block input.
  for (GateId& w : block.insertion.hint.block_inputs) {
    const auto it = block.luts.find(w);
    if (it != block.luts.end()) w = it->second;
  }
  return std::move(block.insertion);
}

PlrInsertion insert_plr(Netlist& netlist, const PlrConfig& config,
                        std::mt19937_64& rng, const std::string& name_prefix) {
  RoutedBlock block =
      route_wires(netlist, config.cln, config.cycle_mode,
                  config.negate_probability, rng, name_prefix);
  // LUT-twist the consuming gates (paper §3.2): every gate reading a CLN
  // output becomes a key-programmable LUT.
  if (config.twist_luts) {
    for (const std::vector<Reader>& readers : block.readers) {
      for (const Reader& r : readers) {
        twist_reader(netlist, block, r, name_prefix + "_lut");
      }
    }
  }
  return finish_block(std::move(block));
}

}  // namespace fl::core

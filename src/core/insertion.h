// PLR insertion (§3.3): grabs a group of wires, routes them through a CLN,
// negates a subset of the driving ("leading") gates (absorbed by the CLN's
// key-configurable inverters), and replaces the consuming ("proceeding")
// gates with key-programmable LUTs.
//
// The routing part (route_wires) is shared with InterLock, which differs
// only in its consumer step; the antichain pick, the reader capture and the
// rewiring below are also Cross-Lock's.
#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <span>

#include "core/cln.h"
#include "core/locked_circuit.h"

namespace fl::core {

enum class CycleMode : std::uint8_t {
  kAvoid,  // antichain wire selection: locked netlist stays acyclic (Fig 6b)
  kAllow,  // unconstrained random selection (may create cycles)
  kForce,  // deliberately pick wires on a common path (Fig 6c)
};

struct PlrConfig {
  ClnConfig cln;
  CycleMode cycle_mode = CycleMode::kAvoid;
  bool twist_luts = true;             // LUT-ify the consuming gates
  double negate_probability = 0.5;    // leading-gate negation rate
};

struct PlrInsertion {
  RoutingBlockHint hint;
  // Correct values for the key inputs appended to the netlist by this
  // insertion, in netlist key order (CLN selects, inverters, LUT bits).
  std::vector<bool> added_key_values;
  int num_luts = 0;
  int num_negated_drivers = 0;
  std::vector<int> selected_wires;  // original GateIds, input-position order
};

// Inserts one PLR. Throws std::invalid_argument if the netlist has fewer
// candidate wires than config.cln.n, or if negation is requested with the
// inverter layer disabled.
PlrInsertion insert_plr(netlist::Netlist& netlist, const PlrConfig& config,
                        std::mt19937_64& rng, const std::string& name_prefix);

// A pin that reads a wire: fanin `slot` of `gate`, or output port `slot`
// when `gate` is kNullGate.
struct Reader {
  netlist::GateId gate;
  std::size_t slot;
  int wire;  // index into the wire list the reader was found for
};

// Every reader of `wires`: gates by id with their pins in order, then the
// output ports.
std::vector<Reader> find_readers(const netlist::Netlist& netlist,
                                 std::span<const netlist::GateId> wires);
// Points `reader` at `source`.
void rewire(netlist::Netlist& netlist, const Reader& reader,
            netlist::GateId source);

// Logic gates and primary inputs that a gate or an output port reads, by
// id: the wires RLL and Cross-Lock pick from, and the PLR candidates once
// dead and key-reached wires are dropped.
std::vector<netlist::GateId> wires_with_readers(const netlist::Netlist&
                                                    netlist);

// Up to `n` of `candidates` of which none reaches another, so routing them
// through one block closes no cycle (Fig 6b): a greedy pass over a random
// order, reshuffled and retried up to 32 times while it falls short. The
// PLR's cycle=avoid pick and Cross-Lock's. Fewer than `n` when every pass
// falls short.
std::vector<netlist::GateId> antichain_wires(
    const netlist::Netlist& netlist, std::vector<netlist::GateId> candidates,
    int n, std::mt19937_64& rng);

// A routed block before its consumer step.
struct RoutedBlock {
  // Hint, routing and inverter key values, negation count and wires so far.
  PlrInsertion insertion;
  // readers[i]: the readers of wire i before the rewiring.
  std::vector<std::vector<Reader>> readers;
  std::map<netlist::GateId, netlist::GateId> luts;  // gate -> LUT root
};

// The routing part of a PLR: selects `cln.n` wires under `cycle_mode`,
// negates a random subset of their drivers, builds the CLN, draws its
// routing key (inverters absorb the negations) and points every reader of
// wire permutation[j] at CLN output j. Throws as insert_plr does.
RoutedBlock route_wires(netlist::Netlist& netlist, const ClnConfig& cln,
                        CycleMode cycle_mode, double negate_probability,
                        std::mt19937_64& rng, const std::string& name_prefix);

// Consumer step: replaces the gate behind `reader` with a key LUT named
// `<stem><k>` (k counts the block's LUTs), appends the LUT's key to the
// block and returns its root. kNullGate when the reader is an output port,
// a gate already replaced, or a gate too wide for a LUT.
netlist::GateId twist_reader(netlist::Netlist& netlist, RoutedBlock& block,
                             const Reader& reader, const std::string& stem);

// Ends a block: a hint input whose driver was LUT-replaced names the LUT.
PlrInsertion finish_block(RoutedBlock block);

}  // namespace fl::core

// Structural analysis helpers shared by locking transforms and attacks.
// Every cone here (reachability, live logic, the key cone and its output
// support) is a Netlist::fanin_cone / fanout_cone call.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace fl::netlist {

// Reachability oracle: answers "is `to` in the transitive fanout of `from`"
// with one cached fanout_cone per queried source. It reads the live
// netlist, whose later edits its cache does not see: do not edit the
// netlist while a Reachability over it is in use.
class Reachability {
 public:
  explicit Reachability(const Netlist& netlist);
  bool reaches(GateId from, GateId to);

 private:
  const Netlist& netlist_;
  std::vector<std::vector<bool>> cache_;  // per-source cone; empty = not yet
};

// Gates that feed at least one primary output (dead logic excluded): the
// fanin cone of the output ports.
std::vector<bool> live_gates(const Netlist& netlist);

// Key-cone partition of a locked netlist, the basis of cone-restricted miter
// encoding (cnf/tseytin.h) and per-DIP constant sweeps (attacks/engine.h).
//
// The *key cone* is the key inputs plus their transitive fanout
// (fanout_cone(keys())) — the only nets whose values can depend on the
// key. Everything else is the *fixed region*: a pure function of the
// primary inputs that a SAT attack can evaluate by simulation instead of
// re-encoding into CNF for every DIP.
// The regions meet at the *taps*: the fixed-region nets the cone reads
// (non-cone fanins of live cone gates) plus the non-cone output ports.
//
// All views are rebuilt lazily when the netlist's structural generation
// changes (Netlist::generation()), alongside the netlist's own topo/fanout
// caches; a rebuild invalidates previously returned spans and the
// fixed-region reference. Not thread-safe per object (one partition per
// attack context, like Reachability). Topological views and fixed_region()
// require an acyclic netlist and throw std::invalid_argument otherwise;
// in_cone() works on any netlist.
class KeyConePartition {
 public:
  explicit KeyConePartition(const Netlist& netlist);

  // True iff net `g` can depend on a key input.
  bool in_cone(GateId g);
  // Cone gates that feed at least one primary output, topologically
  // ordered, sources excluded — exactly the gates a cone-restricted circuit
  // copy encodes. Dead cone gates are dropped (their readers are all dead).
  std::span<const GateId> cone_topo();
  // Fixed-region nets whose values a cone-restricted copy consumes,
  // ascending by id: non-cone fanins of live cone gates plus every non-cone
  // output port (the latter so DIP constraints can still check the
  // key-independent outputs against the oracle response).
  std::span<const GateId> taps();
  // Gates a *full* miter copy actually needs once the key-independent
  // outputs are known to cancel: the fanin cone of the key-dependent
  // output ports, topologically ordered, sources excluded. A fanin-closed
  // superset of cone_topo() and of the taps' support, and usually a strict
  // subset of the whole circuit.
  std::span<const GateId> support_topo();
  // Key-free sub-netlist computing the fixed region: primary inputs are the
  // original inputs (same order), outputs are taps() (same order). Dead
  // fixed-region logic is dropped. Invalidated by a rebuild.
  const Netlist& fixed_region();

 private:
  void ensure();

  const Netlist& netlist_;
  std::uint64_t built_generation_;
  std::vector<bool> in_cone_;
  std::vector<GateId> cone_topo_;
  std::vector<GateId> taps_;
  std::vector<GateId> support_topo_;
  Netlist fixed_region_;
};

// Minimal feedback-arc set heuristic for cyclic netlists: returns a set of
// (gate, fanin_index) edges whose removal makes the netlist acyclic.
// DFS-based; the netlist itself is not modified.
struct Edge {
  GateId gate;       // consumer
  std::size_t pin;   // index into consumer's fanin
  GateId source;     // producer (== gate(gate).fanin[pin])
};
std::vector<Edge> feedback_edges(const Netlist& netlist);

// Copy of `netlist` with dead logic removed. All primary/key inputs are
// kept (the interface is preserved, in order); logic gates survive only if
// they feed some output. Gate ids are remapped; names and output order are
// preserved.
// If `remap_out` is non-null it receives the old-id -> new-id mapping
// (kNullGate for removed gates).
Netlist compact(const Netlist& netlist,
                std::vector<GateId>* remap_out = nullptr);

// Appends `source` to `out` specialised to the constant key `key`: its
// primary inputs read `inputs` (nets of `out`, one per source input, in
// order), its key inputs become constants, a gate whose fanins are all
// constant becomes a constant, and a MUX whose select is constant becomes
// the fanin it selects — which cuts a cyclic lock's routing cycles. Only
// logic that reaches an output under that rewiring is copied. Returns the
// nets of `out` driving source's output ports, in port order. Throws
// std::invalid_argument on a size mismatch or when a structural cycle
// survives the specialisation.
std::vector<GateId> append_specialized(Netlist& out,
                                       std::span<const GateId> inputs,
                                       const Netlist& source,
                                       const std::vector<bool>& key);

// Functionally equivalent copy with every n-ary gate (n > 2) lowered to a
// balanced tree of 2-input gates of the same family (the final tree node
// carries the inversion for NAND/NOR/XNOR). Paper §3.2: lowering the gates
// around a PLR to 2 inputs means only 2-input (4-entry) LUTs are needed.
// MUX gates and 1..2-input gates pass through unchanged.
Netlist decompose_to_two_input(const Netlist& netlist);

// Reduces `leaves` (non-empty) with 2-input `op` gates, level by level:
// each level pairs neighbours in order and carries an odd last leaf up
// unpaired. Returns the root (the leaf itself when there is one).
GateId balanced_tree(Netlist& netlist, std::vector<GateId> leaves,
                     GateType op);

// Signal probabilities under the independence assumption (inputs at 0.5),
// topological propagation. Key inputs also at 0.5. Cyclic netlists:
// relaxation with damping, bounded sweeps.
std::vector<double> signal_probabilities(const Netlist& netlist);

}  // namespace fl::netlist

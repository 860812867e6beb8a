// Combinational netlist container — flat SoA/arena representation.
//
// Gate data lives in parallel arrays indexed by GateId: a type array, a name
// array, and CSR-style fanin storage (per-gate begin/count into one shared
// 32-bit arena, mirroring the solver's clause arena). The container supports
// the structural edits used by logic locking (rewiring fanins, retyping
// gates, appending key inputs) and the queries used by attacks (topological
// order, cycle detection, fanout rows, fanin and fanout cones).
//
// Graph queries (topological order, fanout CSR) are computed once and
// cached against a structural-edit generation counter: any edit bumps the
// generation and the next query rebuilds. The cached spans returned by
// topo_span()/fanout() stay valid until the next structural edit, like
// iterators into a std::vector. Lazy cache fills are serialized
// by an internal mutex, so concurrent const queries are safe; concurrent
// edits are not (usual container rules).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "netlist/gate.h"

namespace fl::netlist {

struct OutputPort {
  GateId gate = kNullGate;
  std::string name;
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}
  Netlist(const Netlist& other);
  Netlist(Netlist&& other) noexcept;
  Netlist& operator=(const Netlist& other);
  Netlist& operator=(Netlist&& other) noexcept;
  ~Netlist() = default;

  // --- construction -------------------------------------------------------
  GateId add_input(std::string name);
  GateId add_key(std::string name);
  GateId add_const(bool value);
  // Adds a logic gate. Fanin ids must already exist. Throws std::invalid_argument
  // on arity violations.
  GateId add_gate(GateType type, std::vector<GateId> fanin, std::string name = "");
  GateId add_gate(GateType type, std::span<const GateId> fanin,
                  std::string name = "");
  GateId add_gate(GateType type, std::initializer_list<GateId> fanin,
                  std::string name = "");
  // Marks an existing gate as (an additional) primary output.
  void mark_output(GateId gate, std::string name = "");
  void clear_outputs() { outputs_.clear(); }
  // Re-points output port `index` at a different net (name is kept).
  void set_output_gate(std::size_t index, GateId gate);

  // --- structural edits (used by locking transforms) -----------------------
  // Replaces every occurrence of `from` in `gate`'s fanin with `to`.
  void replace_fanin_of(GateId gate, GateId from, GateId to);
  // Replaces every reader of net `from` (fanins of all gates, and output
  // ports) with net `to`. Does not touch `from` itself.
  void replace_net(GateId from, GateId to);
  // Retypes a gate in place (arity is re-validated).
  void retype(GateId gate, GateType type);
  // Replaces a gate's fanin list wholesale. A longer list than the gate ever
  // had relocates its arena segment (the old segment is leaked until the
  // netlist is compacted; see structure.h).
  void set_fanin(GateId gate, std::span<const GateId> fanin);
  void set_fanin(GateId gate, const std::vector<GateId>& fanin);

  // --- accessors -----------------------------------------------------------
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }
  std::size_t num_gates() const { return type_.size(); }
  // Non-owning view; invalidated by structural edits and gate appends.
  GateView gate(GateId id) const {
    return GateView{type_[id], fanin(id), gate_name_[id]};
  }
  GateType gate_type(GateId id) const { return type_[id]; }
  std::span<const GateId> fanin(GateId id) const {
    return {fanin_arena_.data() + fanin_begin_[id], fanin_count_[id]};
  }
  std::size_t fanin_size(GateId id) const { return fanin_count_[id]; }
  const std::string& gate_name(GateId id) const { return gate_name_[id]; }
  std::span<const GateId> inputs() const { return inputs_; }
  std::span<const GateId> keys() const { return keys_; }
  std::span<const OutputPort> outputs() const { return outputs_; }
  std::size_t num_inputs() const { return inputs_.size(); }
  std::size_t num_keys() const { return keys_.size(); }
  std::size_t num_outputs() const { return outputs_.size(); }
  // Number of gates that are neither sources nor outputs bookkeeping; i.e.
  // actual logic (excludes consts/inputs/keys).
  std::size_t num_logic_gates() const;

  // Index of `gate` within keys(), or -1 if it is not a key input.
  int key_index(GateId gate) const;
  // Index of `gate` within inputs(), or -1.
  int input_index(GateId gate) const;

  // Bumped by every structural edit; cached graph queries key off it.
  std::uint64_t generation() const { return generation_; }

  // --- graph queries (cached against generation()) -------------------------
  bool is_cyclic() const;
  // Cached topological order over all gates (sources first). Empty iff the
  // netlist is cyclic (check is_cyclic() to distinguish from an empty
  // netlist).
  std::span<const GateId> topo_span() const;
  // Cached fanout row: gates reading net g (deduplicated, ascending).
  std::span<const GateId> fanout(GateId id) const;
  // The one cone walk per direction, seeds included, cyclic netlists too.
  // fanin_cone: gates from which some seed is reachable (e.g. the outputs'
  // cone is the live logic); fanout_cone: gates some seed reaches (e.g. the
  // keys' cone is every net that can depend on the key).
  std::vector<bool> fanin_cone(std::span<const GateId> seeds) const;
  std::vector<bool> fanout_cone(std::span<const GateId> seeds) const;
  // Logic depth (levels) of each gate, computed on every call (nothing in
  // the attack or lock paths reads it); cyclic netlists return nullopt.
  std::optional<std::vector<int>> levels() const;

  // Throws std::logic_error if any fanin id is out of range or arity is wrong.
  void validate() const;

  // Per-gate-type population count, e.g. for reports.
  std::vector<std::size_t> type_histogram() const;

 private:
  struct GraphCache {
    bool cyclic = false;
    std::vector<GateId> topo;             // empty when cyclic
    std::vector<std::uint32_t> fanout_begin;  // size num_gates + 1
    std::vector<GateId> fanout_arena;         // dedup, ascending per row
  };

  void check_arity(GateType type, std::size_t n_fanin) const;
  GateId append_gate(GateType type, std::span<const GateId> fanin,
                     std::string name);
  // Invalidate caches after a structural edit.
  void touch() { ++generation_; }
  // Fills (if stale) and returns the graph cache.
  const GraphCache& graph() const;

  std::string name_;
  std::vector<GateType> type_;
  std::vector<std::uint32_t> fanin_begin_;
  std::vector<std::uint32_t> fanin_count_;
  std::vector<GateId> fanin_arena_;
  std::vector<std::string> gate_name_;
  std::vector<GateId> inputs_;
  std::vector<GateId> keys_;
  std::vector<OutputPort> outputs_;
  std::uint64_t generation_ = 0;

  mutable GraphCache cache_;
  // Generation the cache was built for; ~0 = never. Atomic so concurrent
  // const queries can skip the mutex once the cache is current.
  mutable std::atomic<std::uint64_t> cache_generation_{~std::uint64_t{0}};
  mutable std::mutex cache_mutex_;
};

}  // namespace fl::netlist

#include "netlist/netlist.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace fl::netlist {

std::string_view to_string(GateType type) {
  switch (type) {
    case GateType::kConst0: return "CONST0";
    case GateType::kConst1: return "CONST1";
    case GateType::kInput:  return "INPUT";
    case GateType::kKey:    return "KEY";
    case GateType::kBuf:    return "BUF";
    case GateType::kNot:    return "NOT";
    case GateType::kAnd:    return "AND";
    case GateType::kNand:   return "NAND";
    case GateType::kOr:     return "OR";
    case GateType::kNor:    return "NOR";
    case GateType::kXor:    return "XOR";
    case GateType::kXnor:   return "XNOR";
    case GateType::kMux:    return "MUX";
  }
  return "?";
}

// The cache mutex is not copyable; copies get fresh (stale) caches, moves
// steal the source's data arrays.
Netlist::Netlist(const Netlist& other)
    : name_(other.name_),
      type_(other.type_),
      fanin_begin_(other.fanin_begin_),
      fanin_count_(other.fanin_count_),
      fanin_arena_(other.fanin_arena_),
      gate_name_(other.gate_name_),
      inputs_(other.inputs_),
      keys_(other.keys_),
      outputs_(other.outputs_),
      generation_(other.generation_) {}

Netlist::Netlist(Netlist&& other) noexcept
    : name_(std::move(other.name_)),
      type_(std::move(other.type_)),
      fanin_begin_(std::move(other.fanin_begin_)),
      fanin_count_(std::move(other.fanin_count_)),
      fanin_arena_(std::move(other.fanin_arena_)),
      gate_name_(std::move(other.gate_name_)),
      inputs_(std::move(other.inputs_)),
      keys_(std::move(other.keys_)),
      outputs_(std::move(other.outputs_)),
      generation_(other.generation_),
      cache_(std::move(other.cache_)),
      cache_generation_(
          other.cache_generation_.load(std::memory_order_relaxed)) {}

Netlist& Netlist::operator=(const Netlist& other) {
  if (this == &other) return *this;
  name_ = other.name_;
  type_ = other.type_;
  fanin_begin_ = other.fanin_begin_;
  fanin_count_ = other.fanin_count_;
  fanin_arena_ = other.fanin_arena_;
  gate_name_ = other.gate_name_;
  inputs_ = other.inputs_;
  keys_ = other.keys_;
  outputs_ = other.outputs_;
  generation_ = other.generation_;
  cache_ = GraphCache{};  // stale; rebuilt on next query
  cache_generation_.store(~std::uint64_t{0}, std::memory_order_relaxed);
  return *this;
}

Netlist& Netlist::operator=(Netlist&& other) noexcept {
  if (this == &other) return *this;
  name_ = std::move(other.name_);
  type_ = std::move(other.type_);
  fanin_begin_ = std::move(other.fanin_begin_);
  fanin_count_ = std::move(other.fanin_count_);
  fanin_arena_ = std::move(other.fanin_arena_);
  gate_name_ = std::move(other.gate_name_);
  inputs_ = std::move(other.inputs_);
  keys_ = std::move(other.keys_);
  outputs_ = std::move(other.outputs_);
  generation_ = other.generation_;
  cache_ = std::move(other.cache_);
  cache_generation_.store(
      other.cache_generation_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  return *this;
}

void Netlist::check_arity(GateType type, std::size_t n_fanin) const {
  const int fixed = fixed_arity(type);
  if (fixed >= 0) {
    if (n_fanin != static_cast<std::size_t>(fixed)) {
      throw std::invalid_argument("gate arity mismatch for " +
                                  std::string(to_string(type)));
    }
  } else if (n_fanin < 2) {
    throw std::invalid_argument("n-ary gate needs >= 2 fanins");
  }
}

GateId Netlist::append_gate(GateType type, std::span<const GateId> fanin,
                            std::string name) {
  if (type_.size() >= kNullGate ||
      fanin_arena_.size() + fanin.size() >
          std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("netlist arena exceeds 32-bit capacity");
  }
  const GateId id = static_cast<GateId>(type_.size());
  type_.push_back(type);
  fanin_begin_.push_back(static_cast<std::uint32_t>(fanin_arena_.size()));
  fanin_count_.push_back(static_cast<std::uint32_t>(fanin.size()));
  fanin_arena_.insert(fanin_arena_.end(), fanin.begin(), fanin.end());
  gate_name_.push_back(std::move(name));
  touch();
  return id;
}

GateId Netlist::add_input(std::string name) {
  const GateId id = append_gate(GateType::kInput, {}, std::move(name));
  inputs_.push_back(id);
  return id;
}

GateId Netlist::add_key(std::string name) {
  const GateId id = append_gate(GateType::kKey, {}, std::move(name));
  keys_.push_back(id);
  return id;
}

GateId Netlist::add_const(bool value) {
  return append_gate(value ? GateType::kConst1 : GateType::kConst0, {}, "");
}

GateId Netlist::add_gate(GateType type, std::span<const GateId> fanin,
                         std::string name) {
  if (is_source(type)) {
    throw std::invalid_argument("use add_input/add_key/add_const for sources");
  }
  check_arity(type, fanin.size());
  for (const GateId f : fanin) {
    if (f >= type_.size()) throw std::invalid_argument("fanin id out of range");
  }
  return append_gate(type, fanin, std::move(name));
}

GateId Netlist::add_gate(GateType type, std::vector<GateId> fanin,
                         std::string name) {
  return add_gate(type, std::span<const GateId>(fanin), std::move(name));
}

GateId Netlist::add_gate(GateType type, std::initializer_list<GateId> fanin,
                         std::string name) {
  return add_gate(type, std::span<const GateId>(fanin.begin(), fanin.size()),
                  std::move(name));
}

void Netlist::mark_output(GateId gate, std::string name) {
  if (gate >= type_.size()) throw std::invalid_argument("output id out of range");
  if (name.empty()) name = gate_name_[gate];
  outputs_.push_back(OutputPort{gate, std::move(name)});
}

void Netlist::set_output_gate(std::size_t index, GateId gate) {
  if (index >= outputs_.size() || gate >= type_.size()) {
    throw std::invalid_argument("set_output_gate: index out of range");
  }
  outputs_[index].gate = gate;
  touch();
}

void Netlist::replace_fanin_of(GateId gate, GateId from, GateId to) {
  GateId* f = fanin_arena_.data() + fanin_begin_[gate];
  for (std::uint32_t i = 0; i < fanin_count_[gate]; ++i) {
    if (f[i] == from) f[i] = to;
  }
  touch();
}

void Netlist::replace_net(GateId from, GateId to) {
  // A wholesale arena sweep also rewrites segments leaked by a growing
  // set_fanin; those are unreferenced, so the extra writes are harmless.
  for (GateId& f : fanin_arena_) {
    if (f == from) f = to;
  }
  for (OutputPort& o : outputs_) {
    if (o.gate == from) o.gate = to;
  }
  touch();
}

void Netlist::retype(GateId gate, GateType type) {
  check_arity(type, fanin_count_[gate]);
  type_[gate] = type;
  touch();
}

void Netlist::set_fanin(GateId gate, std::span<const GateId> fanin) {
  check_arity(type_[gate], fanin.size());
  for (const GateId f : fanin) {
    if (f >= type_.size()) throw std::invalid_argument("fanin id out of range");
  }
  if (fanin.size() <= fanin_count_[gate]) {
    std::copy(fanin.begin(), fanin.end(),
              fanin_arena_.begin() + fanin_begin_[gate]);
  } else {
    // Relocate to the end of the arena; the old segment is leaked until the
    // next compact() rebuild.
    if (fanin_arena_.size() + fanin.size() >
        std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("netlist arena exceeds 32-bit capacity");
    }
    fanin_begin_[gate] = static_cast<std::uint32_t>(fanin_arena_.size());
    fanin_arena_.insert(fanin_arena_.end(), fanin.begin(), fanin.end());
  }
  fanin_count_[gate] = static_cast<std::uint32_t>(fanin.size());
  touch();
}

void Netlist::set_fanin(GateId gate, const std::vector<GateId>& fanin) {
  set_fanin(gate, std::span<const GateId>(fanin));
}

std::size_t Netlist::num_logic_gates() const {
  std::size_t n = 0;
  for (const GateType t : type_) {
    if (!is_source(t)) ++n;
  }
  return n;
}

int Netlist::key_index(GateId gate) const {
  const auto it = std::find(keys_.begin(), keys_.end(), gate);
  return it == keys_.end() ? -1 : static_cast<int>(it - keys_.begin());
}

int Netlist::input_index(GateId gate) const {
  const auto it = std::find(inputs_.begin(), inputs_.end(), gate);
  return it == inputs_.end() ? -1 : static_cast<int>(it - inputs_.begin());
}

const Netlist::GraphCache& Netlist::graph() const {
  // Fast path: the cache is current (release-published below), no lock.
  if (cache_generation_.load(std::memory_order_acquire) == generation_) {
    return cache_;
  }
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (cache_generation_.load(std::memory_order_relaxed) == generation_) {
    return cache_;
  }
  const std::size_t n = type_.size();

  // Fanout CSR (deduplicated, ascending per row). Consumers are visited in
  // ascending id order, so rows come out sorted and duplicates from one
  // consumer's repeated pins land adjacently.
  cache_.fanout_begin.assign(n + 1, 0);
  for (std::size_t g = 0; g < n; ++g) {
    for (const GateId f : fanin(static_cast<GateId>(g))) {
      ++cache_.fanout_begin[f + 1];
    }
  }
  for (std::size_t g = 0; g < n; ++g) {
    cache_.fanout_begin[g + 1] += cache_.fanout_begin[g];
  }
  cache_.fanout_arena.assign(cache_.fanout_begin[n], kNullGate);
  std::vector<std::uint32_t> fill(cache_.fanout_begin.begin(),
                                  cache_.fanout_begin.end() - 1);
  for (std::size_t g = 0; g < n; ++g) {
    for (const GateId f : fanin(static_cast<GateId>(g))) {
      const std::uint32_t at = fill[f];
      if (at > cache_.fanout_begin[f] &&
          cache_.fanout_arena[at - 1] == static_cast<GateId>(g)) {
        continue;  // duplicate pin of the same consumer
      }
      cache_.fanout_arena[at] = static_cast<GateId>(g);
      ++fill[f];
    }
  }
  // Compact out the dedup holes row by row.
  std::uint32_t write = 0;
  for (std::size_t g = 0; g < n; ++g) {
    const std::uint32_t begin = cache_.fanout_begin[g];
    const std::uint32_t end = fill[g];
    cache_.fanout_begin[g] = write;
    for (std::uint32_t i = begin; i < end; ++i) {
      cache_.fanout_arena[write++] = cache_.fanout_arena[i];
    }
  }
  cache_.fanout_begin[n] = write;
  cache_.fanout_arena.resize(write);

  // Kahn's algorithm over the dedup CSR; a gate reading the same net k
  // times has its pending count decremented by k at once.
  std::vector<std::uint32_t> pending(n);
  for (std::size_t g = 0; g < n; ++g) pending[g] = fanin_count_[g];
  cache_.topo.clear();
  cache_.topo.reserve(n);
  for (std::size_t g = 0; g < n; ++g) {
    if (pending[g] == 0) cache_.topo.push_back(static_cast<GateId>(g));
  }
  for (std::size_t head = 0; head < cache_.topo.size(); ++head) {
    const GateId g = cache_.topo[head];
    for (std::uint32_t i = cache_.fanout_begin[g];
         i < cache_.fanout_begin[g + 1]; ++i) {
      const GateId out = cache_.fanout_arena[i];
      std::uint32_t edges = 0;
      for (const GateId f : fanin(out)) {
        if (f == g) ++edges;
      }
      pending[out] -= edges;
      if (pending[out] == 0) cache_.topo.push_back(out);
    }
  }
  cache_.cyclic = cache_.topo.size() != n;
  if (cache_.cyclic) cache_.topo.clear();

  cache_generation_.store(generation_, std::memory_order_release);
  return cache_;
}

bool Netlist::is_cyclic() const { return graph().cyclic; }

std::span<const GateId> Netlist::topo_span() const {
  const GraphCache& c = graph();
  return c.topo;
}

std::span<const GateId> Netlist::fanout(GateId id) const {
  const GraphCache& c = graph();
  return {c.fanout_arena.data() + c.fanout_begin[id],
          c.fanout_begin[id + 1] - c.fanout_begin[id]};
}

namespace {

// Depth-first closure of `seeds` under `next` (a gate's fanin or fanout row).
template <typename Next>
std::vector<bool> closure(std::size_t num_gates, std::span<const GateId> seeds,
                          Next next) {
  std::vector<bool> in_cone(num_gates, false);
  std::vector<GateId> stack;
  for (const GateId s : seeds) {
    if (!in_cone[s]) {
      in_cone[s] = true;
      stack.push_back(s);
    }
  }
  while (!stack.empty()) {
    const GateId g = stack.back();
    stack.pop_back();
    for (const GateId h : next(g)) {
      if (!in_cone[h]) {
        in_cone[h] = true;
        stack.push_back(h);
      }
    }
  }
  return in_cone;
}

}  // namespace

std::vector<bool> Netlist::fanin_cone(std::span<const GateId> seeds) const {
  return closure(type_.size(), seeds, [this](GateId g) { return fanin(g); });
}

std::vector<bool> Netlist::fanout_cone(std::span<const GateId> seeds) const {
  return closure(type_.size(), seeds, [this](GateId g) { return fanout(g); });
}

std::optional<std::vector<int>> Netlist::levels() const {
  const GraphCache& c = graph();
  if (c.cyclic) return std::nullopt;
  std::vector<int> levels(type_.size(), 0);
  for (const GateId g : c.topo) {
    for (const GateId f : fanin(g)) {
      levels[g] = std::max(levels[g], levels[f] + 1);
    }
  }
  return levels;
}

void Netlist::validate() const {
  for (std::size_t g = 0; g < type_.size(); ++g) {
    check_arity(type_[g], fanin_count_[g]);
    for (const GateId f : fanin(static_cast<GateId>(g))) {
      if (f >= type_.size()) throw std::logic_error("dangling fanin id");
    }
  }
  for (const OutputPort& o : outputs_) {
    if (o.gate >= type_.size()) throw std::logic_error("dangling output id");
  }
}

std::vector<std::size_t> Netlist::type_histogram() const {
  std::vector<std::size_t> hist(static_cast<std::size_t>(GateType::kMux) + 1, 0);
  for (const GateType t : type_) {
    hist[static_cast<std::size_t>(t)]++;
  }
  return hist;
}

}  // namespace fl::netlist

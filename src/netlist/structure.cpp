#include "netlist/structure.h"

#include <algorithm>
#include <stdexcept>

#include "netlist/simulator.h"

namespace fl::netlist {

Reachability::Reachability(const Netlist& netlist)
    : netlist_(netlist), cache_(netlist.num_gates()) {}

bool Reachability::reaches(GateId from, GateId to) {
  if (cache_[from].empty()) cache_[from] = netlist_.fanout_cone({&from, 1});
  return cache_[from][to];
}

std::vector<bool> live_gates(const Netlist& netlist) {
  std::vector<GateId> ports;
  for (const OutputPort& o : netlist.outputs()) ports.push_back(o.gate);
  return netlist.fanin_cone(ports);
}

KeyConePartition::KeyConePartition(const Netlist& netlist)
    : netlist_(netlist), built_generation_(~std::uint64_t{0}) {}

void KeyConePartition::ensure() {
  if (built_generation_ == netlist_.generation()) return;

  const std::size_t n = netlist_.num_gates();
  cone_topo_.clear();
  taps_.clear();
  support_topo_.clear();
  fixed_region_ = Netlist(netlist_.name() + ".fixed");

  // Cone mask (keys included); works for cyclic netlists too.
  in_cone_ = netlist_.fanout_cone(netlist_.keys());
  // Stamp the generation only after the mask: the topological views below
  // stay empty for cyclic netlists and their accessors throw.
  built_generation_ = netlist_.generation();
  if (netlist_.is_cyclic()) return;

  const std::vector<bool> live = live_gates(netlist_);

  // Taps: non-cone nets read by live cone gates, plus non-cone output ports.
  // (Both are live by construction: a live reader's fanins are live.)
  std::vector<bool> is_tap(n, false);
  for (GateId g = 0; g < n; ++g) {
    if (!in_cone_[g] || !live[g]) continue;
    for (const GateId f : netlist_.fanin(g)) {
      if (!in_cone_[f]) is_tap[f] = true;
    }
  }
  for (const OutputPort& o : netlist_.outputs()) {
    if (!in_cone_[o.gate]) is_tap[o.gate] = true;
  }
  for (GateId g = 0; g < n; ++g) {
    if (is_tap[g]) taps_.push_back(g);
  }

  // Support: fanin cone of the key-dependent output ports. The
  // key-independent ports cancel in any miter, so a full copy only needs
  // these gates.
  std::vector<GateId> keyed_ports;
  for (const OutputPort& o : netlist_.outputs()) {
    if (in_cone_[o.gate]) keyed_ports.push_back(o.gate);
  }
  const std::vector<bool> in_support = netlist_.fanin_cone(keyed_ports);

  for (const GateId g : netlist_.topo_span()) {
    if (is_source(netlist_.gate_type(g))) continue;
    if (in_cone_[g] && live[g]) cone_topo_.push_back(g);
    if (in_support[g]) support_topo_.push_back(g);
  }

  // Fixed region: live non-cone gates over the full primary-input interface,
  // with the taps as outputs. Fanins of live non-cone gates are live and
  // non-cone themselves, so the remap below never sees a hole.
  std::vector<GateId> remap(n, kNullGate);
  for (const GateId g : netlist_.inputs()) {
    remap[g] = fixed_region_.add_input(netlist_.gate_name(g));
  }
  for (const GateId g : netlist_.topo_span()) {
    if (remap[g] != kNullGate || in_cone_[g] || !live[g]) continue;
    const GateType t = netlist_.gate_type(g);
    if (t == GateType::kConst0 || t == GateType::kConst1) {
      remap[g] = fixed_region_.add_const(t == GateType::kConst1);
      continue;
    }
    if (is_source(t)) continue;  // keys are in the cone; inputs done above
    std::vector<GateId> fanin;
    const auto fan = netlist_.fanin(g);
    fanin.reserve(fan.size());
    for (const GateId f : fan) fanin.push_back(remap[f]);
    remap[g] = fixed_region_.add_gate(t, std::move(fanin));
  }
  for (const GateId g : taps_) {
    fixed_region_.mark_output(remap[g]);
  }
}

bool KeyConePartition::in_cone(GateId g) {
  ensure();
  return in_cone_[g];
}

namespace {
void require_acyclic(const Netlist& netlist, const char* what) {
  if (netlist.is_cyclic()) {
    throw std::invalid_argument(std::string("KeyConePartition::") + what +
                                ": needs an acyclic netlist");
  }
}
}  // namespace

std::span<const GateId> KeyConePartition::cone_topo() {
  ensure();
  require_acyclic(netlist_, "cone_topo");
  return cone_topo_;
}

std::span<const GateId> KeyConePartition::taps() {
  ensure();
  require_acyclic(netlist_, "taps");
  return taps_;
}

std::span<const GateId> KeyConePartition::support_topo() {
  ensure();
  require_acyclic(netlist_, "support_topo");
  return support_topo_;
}

const Netlist& KeyConePartition::fixed_region() {
  ensure();
  require_acyclic(netlist_, "fixed_region");
  return fixed_region_;
}

std::vector<Edge> feedback_edges(const Netlist& netlist) {
  // Iterative DFS over the fanin graph; a back edge (to a gate currently on
  // the DFS stack) is a feedback edge.
  enum class Color : std::uint8_t { kWhite, kGray, kBlack };
  const std::size_t n = netlist.num_gates();
  std::vector<Color> color(n, Color::kWhite);
  std::vector<Edge> feedback;

  struct Frame {
    GateId gate;
    std::size_t next_pin;
  };
  std::vector<Frame> stack;
  for (GateId root = 0; root < n; ++root) {
    if (color[root] != Color::kWhite) continue;
    color[root] = Color::kGray;
    stack.push_back({root, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const Gate& gate = netlist.gate(frame.gate);
      if (frame.next_pin < gate.fanin.size()) {
        const std::size_t pin = frame.next_pin++;
        const GateId src = gate.fanin[pin];
        if (color[src] == Color::kWhite) {
          color[src] = Color::kGray;
          stack.push_back({src, 0});
        } else if (color[src] == Color::kGray) {
          feedback.push_back(Edge{frame.gate, pin, src});
        }
      } else {
        color[frame.gate] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  return feedback;
}

Netlist compact(const Netlist& netlist, std::vector<GateId>* remap_out) {
  const std::vector<bool> live = live_gates(netlist);
  Netlist out(netlist.name());
  std::vector<GateId> remap(netlist.num_gates(), kNullGate);
  // Sources first, in interface order, live or not.
  for (const GateId g : netlist.inputs()) {
    remap[g] = out.add_input(netlist.gate(g).name);
  }
  for (const GateId g : netlist.keys()) {
    remap[g] = out.add_key(netlist.gate(g).name);
  }
  // Remaining gates in an id order pass; ids only increase, so any live
  // acyclic gate sees its fanins remapped... but cyclic netlists and
  // forward references require a placeholder patch pass, mirroring bench_io.
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    const Gate& gate = netlist.gate(g);
    if (remap[g] != kNullGate || !live[g]) continue;
    if (gate.type == GateType::kConst0 || gate.type == GateType::kConst1) {
      remap[g] = out.add_const(gate.type == GateType::kConst1);
      continue;
    }
    remap[g] = out.add_gate(gate.type,
                            std::vector<GateId>(gate.fanin.size(), 0),
                            gate.name);
  }
  for (GateId g = 0; g < netlist.num_gates(); ++g) {
    const Gate& gate = netlist.gate(g);
    if (remap[g] == kNullGate || is_source(gate.type)) continue;
    std::vector<GateId> fanin;
    fanin.reserve(gate.fanin.size());
    for (const GateId f : gate.fanin) fanin.push_back(remap[f]);
    out.set_fanin(remap[g], std::move(fanin));
  }
  for (const OutputPort& o : netlist.outputs()) {
    out.mark_output(remap[o.gate], o.name);
  }
  out.validate();
  if (remap_out != nullptr) *remap_out = std::move(remap);
  return out;
}

std::vector<GateId> append_specialized(Netlist& out,
                                       std::span<const GateId> inputs,
                                       const Netlist& source,
                                       const std::vector<bool>& key) {
  if (inputs.size() != source.num_inputs() || key.size() != source.num_keys()) {
    throw std::invalid_argument("append_specialized: interface size mismatch");
  }
  GateId consts[2] = {kNullGate, kNullGate};
  const auto constant = [&](bool value) {
    if (consts[value] == kNullGate) consts[value] = out.add_const(value);
    return consts[value];
  };
  const auto value_of = [&](GateId net) {  // 0, 1, or -1 when not constant
    const GateType type = out.gate_type(net);
    return type == GateType::kConst0 ? 0 : type == GateType::kConst1 ? 1 : -1;
  };

  enum : std::uint8_t { kNew, kOnPath, kDone };
  std::vector<std::uint8_t> state(source.num_gates(), kNew);
  std::vector<GateId> map(source.num_gates(), kNullGate);  // source -> out
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    map[source.inputs()[i]] = inputs[i];
    state[source.inputs()[i]] = kDone;
  }
  for (std::size_t i = 0; i < key.size(); ++i) {
    map[source.keys()[i]] = constant(key[i]);
    state[source.keys()[i]] = kDone;
  }

  // The fanins `g` reads once everything before them is folded: a MUX reads
  // its select first, then only the data fanin a constant select picks.
  const auto reads = [&](GateId g) {
    std::span<const GateId> fanin = source.fanin(g);
    if (source.gate_type(g) != GateType::kMux) return fanin;
    if (state[fanin[0]] != kDone) return fanin.first(1);
    const int select = value_of(map[fanin[0]]);
    return select < 0 ? fanin : fanin.subspan(1 + select, 1);
  };
  std::vector<GateId> fanin;
  std::vector<Word> words;
  const auto emit = [&](GateId g) {
    const GateType type = source.gate_type(g);
    if (type == GateType::kConst0 || type == GateType::kConst1) {
      return constant(type == GateType::kConst1);
    }
    const std::span<const GateId> src = reads(g);
    if (type == GateType::kMux && src.size() == 1) return map[src[0]];
    fanin.clear();
    words.clear();
    bool all_constant = true;
    for (const GateId f : src) {
      fanin.push_back(map[f]);
      const int value = value_of(map[f]);
      all_constant = all_constant && value >= 0;
      words.push_back(value > 0 ? ~Word{0} : Word{0});
    }
    if (all_constant) return constant((eval_gate(type, words) & 1) != 0);
    return out.add_gate(type, std::span<const GateId>(fanin));
  };

  // Depth-first from every output port; `path` is exactly the gates on the
  // current path, so reading one of them again closes a cycle.
  std::vector<GateId> path;
  std::vector<GateId> result;
  result.reserve(source.num_outputs());
  for (const OutputPort& port : source.outputs()) {
    path.push_back(port.gate);
    while (!path.empty()) {
      const GateId g = path.back();
      if (state[g] == kDone) {
        path.pop_back();
        continue;
      }
      state[g] = kOnPath;
      GateId next = kNullGate;
      for (const GateId f : reads(g)) {
        if (state[f] == kOnPath) {
          throw std::invalid_argument(
              "append_specialized: a structural cycle survives the key");
        }
        if (state[f] == kNew) {
          next = f;
          break;
        }
      }
      if (next != kNullGate) {
        path.push_back(next);
        continue;
      }
      map[g] = emit(g);
      state[g] = kDone;
      path.pop_back();
    }
    result.push_back(map[port.gate]);
  }
  return result;
}

namespace {

// Non-inverting base operation of each decomposable n-ary family.
GateType tree_op(GateType type) {
  switch (type) {
    case GateType::kAnd:
    case GateType::kNand: return GateType::kAnd;
    case GateType::kOr:
    case GateType::kNor: return GateType::kOr;
    case GateType::kXor:
    case GateType::kXnor: return GateType::kXor;
    default: return type;
  }
}

bool inverted_family(GateType type) {
  return type == GateType::kNand || type == GateType::kNor ||
         type == GateType::kXnor;
}

}  // namespace

GateId balanced_tree(Netlist& netlist, std::vector<GateId> leaves,
                     GateType op) {
  while (leaves.size() > 1) {
    std::vector<GateId> next;
    for (std::size_t i = 0; i + 1 < leaves.size(); i += 2) {
      next.push_back(netlist.add_gate(op, {leaves[i], leaves[i + 1]}));
    }
    if (leaves.size() % 2 == 1) next.push_back(leaves.back());
    leaves = std::move(next);
  }
  return leaves[0];
}

Netlist decompose_to_two_input(const Netlist& netlist) {
  Netlist out(netlist.name());
  std::vector<GateId> remap(netlist.num_gates(), kNullGate);
  for (const GateId g : netlist.inputs()) {
    remap[g] = out.add_input(netlist.gate(g).name);
  }
  for (const GateId g : netlist.keys()) {
    remap[g] = out.add_key(netlist.gate(g).name);
  }
  if (netlist.is_cyclic()) {
    throw std::invalid_argument("decompose_to_two_input: cyclic netlist");
  }
  for (const GateId g : netlist.topo_span()) {
    const Gate& gate = netlist.gate(g);
    if (is_source(gate.type)) {
      if (gate.type == GateType::kConst0 || gate.type == GateType::kConst1) {
        remap[g] = out.add_const(gate.type == GateType::kConst1);
      }
      continue;
    }
    std::vector<GateId> fanin;
    fanin.reserve(gate.fanin.size());
    for (const GateId f : gate.fanin) fanin.push_back(remap[f]);
    if (fanin.size() <= 2 || gate.type == GateType::kMux) {
      remap[g] = out.add_gate(gate.type, std::move(fanin), gate.name);
      continue;
    }
    // Balanced reduction; the *last* combining node carries the family's
    // inversion and the original name.
    const GateType op = tree_op(gate.type);
    std::vector<GateId> layer = std::move(fanin);
    while (layer.size() > 2) {
      std::vector<GateId> next;
      for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
        next.push_back(out.add_gate(op, {layer[i], layer[i + 1]}));
      }
      if (layer.size() % 2 == 1) next.push_back(layer.back());
      layer = std::move(next);
    }
    const GateType root_op =
        inverted_family(gate.type)
            ? (op == GateType::kAnd
                   ? GateType::kNand
                   : op == GateType::kOr ? GateType::kNor : GateType::kXnor)
            : op;
    remap[g] = out.add_gate(root_op, {layer[0], layer[1]}, gate.name);
  }
  for (const OutputPort& o : netlist.outputs()) {
    out.mark_output(remap[o.gate], o.name);
  }
  out.validate();
  return out;
}

namespace {

double gate_probability(const Gate& gate, const std::vector<double>& p) {
  auto pin = [&](std::size_t i) { return p[gate.fanin[i]]; };
  switch (gate.type) {
    case GateType::kConst0: return 0.0;
    case GateType::kConst1: return 1.0;
    case GateType::kInput:
    case GateType::kKey: return 0.5;
    case GateType::kBuf: return pin(0);
    case GateType::kNot: return 1.0 - pin(0);
    case GateType::kAnd:
    case GateType::kNand: {
      double v = 1.0;
      for (std::size_t i = 0; i < gate.fanin.size(); ++i) v *= pin(i);
      return gate.type == GateType::kAnd ? v : 1.0 - v;
    }
    case GateType::kOr:
    case GateType::kNor: {
      double v = 1.0;
      for (std::size_t i = 0; i < gate.fanin.size(); ++i) v *= 1.0 - pin(i);
      return gate.type == GateType::kOr ? 1.0 - v : v;
    }
    case GateType::kXor:
    case GateType::kXnor: {
      double v = pin(0);
      for (std::size_t i = 1; i < gate.fanin.size(); ++i) {
        const double q = pin(i);
        v = v * (1.0 - q) + q * (1.0 - v);
      }
      return gate.type == GateType::kXor ? v : 1.0 - v;
    }
    case GateType::kMux: {
      const double s = pin(0);
      return (1.0 - s) * pin(1) + s * pin(2);
    }
  }
  return 0.5;
}

}  // namespace

std::vector<double> signal_probabilities(const Netlist& netlist) {
  std::vector<double> p(netlist.num_gates(), 0.5);
  if (!netlist.is_cyclic()) {
    for (const GateId g : netlist.topo_span()) {
      p[g] = gate_probability(netlist.gate(g), p);
    }
    return p;
  }
  // Cyclic: damped relaxation.
  constexpr int kSweeps = 64;
  constexpr double kDamping = 0.5;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    double delta = 0.0;
    for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
      const Gate& gate = netlist.gate(static_cast<GateId>(g));
      if (is_source(gate.type) &&
          gate.type != GateType::kConst0 && gate.type != GateType::kConst1) {
        continue;
      }
      const double next =
          kDamping * gate_probability(gate, p) + (1.0 - kDamping) * p[g];
      delta = std::max(delta, std::abs(next - p[g]));
      p[g] = next;
    }
    if (delta < 1e-9) break;
  }
  return p;
}

}  // namespace fl::netlist

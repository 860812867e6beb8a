#include "netlist/simulator.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace fl::netlist {

Word eval_gate(GateType type, std::span<const Word> fanin) {
  switch (type) {
    case GateType::kConst0: return Word{0};
    case GateType::kConst1: return ~Word{0};
    case GateType::kInput:
    case GateType::kKey:
      throw std::logic_error("source gate evaluated without stimulus");
    case GateType::kBuf: return fanin[0];
    case GateType::kNot: return ~fanin[0];
    case GateType::kAnd: {
      Word v = fanin[0];
      for (std::size_t i = 1; i < fanin.size(); ++i) v &= fanin[i];
      return v;
    }
    case GateType::kNand: {
      Word v = fanin[0];
      for (std::size_t i = 1; i < fanin.size(); ++i) v &= fanin[i];
      return ~v;
    }
    case GateType::kOr: {
      Word v = fanin[0];
      for (std::size_t i = 1; i < fanin.size(); ++i) v |= fanin[i];
      return v;
    }
    case GateType::kNor: {
      Word v = fanin[0];
      for (std::size_t i = 1; i < fanin.size(); ++i) v |= fanin[i];
      return ~v;
    }
    case GateType::kXor: {
      Word v = fanin[0];
      for (std::size_t i = 1; i < fanin.size(); ++i) v ^= fanin[i];
      return v;
    }
    case GateType::kXnor: {
      Word v = fanin[0];
      for (std::size_t i = 1; i < fanin.size(); ++i) v ^= fanin[i];
      return ~v;
    }
    case GateType::kMux:
      // fanin = {sel, a, b}: out = sel ? b : a, bitwise.
      return (fanin[0] & fanin[2]) | (~fanin[0] & fanin[1]);
  }
  throw std::logic_error("unknown gate type");
}

namespace {

// Writes the stimulus into the source nets of `value`.
void sweep_sources(const Netlist& netlist, std::span<const Word> inputs,
                   std::span<const Word> keys, std::vector<Word>& value) {
  if (inputs.size() != netlist.num_inputs() ||
      keys.size() != netlist.num_keys()) {
    throw std::invalid_argument("stimulus width mismatch");
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    value[netlist.inputs()[i]] = inputs[i];
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    value[netlist.keys()[i]] = keys[i];
  }
}

// `big` is caller-held scratch reused across gates so wide fanins (arity > 8)
// do not heap-allocate per gate.
Word eval_gate_at(const Netlist& netlist, GateId g,
                  const std::vector<Word>& value, std::vector<Word>& big) {
  const std::span<const GateId> fanin = netlist.fanin(g);
  const GateType type = netlist.gate_type(g);
  Word buf[8];
  if (fanin.size() <= 8) {
    for (std::size_t i = 0; i < fanin.size(); ++i) buf[i] = value[fanin[i]];
    return eval_gate(type, std::span<const Word>(buf, fanin.size()));
  }
  big.resize(fanin.size());
  for (std::size_t i = 0; i < fanin.size(); ++i) big[i] = value[fanin[i]];
  return eval_gate(type, big);
}

// Evaluates one gate over kSimdWords-word blocks stored gate-major in `val`
// (block of gate g at val + g * kSimdWords).
simd::Vec eval_block(GateType type, const Word* val,
                     std::span<const GateId> fanin) {
  using namespace simd;
  const auto in = [&](std::size_t i) {
    return load(val + static_cast<std::size_t>(fanin[i]) * kSimdWords);
  };
  switch (type) {
    case GateType::kConst0: return zeros();
    case GateType::kConst1: return ones();
    case GateType::kInput:
    case GateType::kKey:
      throw std::logic_error("source gate evaluated without stimulus");
    case GateType::kBuf: return in(0);
    case GateType::kNot: return v_not(in(0));
    case GateType::kAnd: {
      Vec v = in(0);
      for (std::size_t i = 1; i < fanin.size(); ++i) v = v_and(v, in(i));
      return v;
    }
    case GateType::kNand: {
      Vec v = in(0);
      for (std::size_t i = 1; i < fanin.size(); ++i) v = v_and(v, in(i));
      return v_not(v);
    }
    case GateType::kOr: {
      Vec v = in(0);
      for (std::size_t i = 1; i < fanin.size(); ++i) v = v_or(v, in(i));
      return v;
    }
    case GateType::kNor: {
      Vec v = in(0);
      for (std::size_t i = 1; i < fanin.size(); ++i) v = v_or(v, in(i));
      return v_not(v);
    }
    case GateType::kXor: {
      Vec v = in(0);
      for (std::size_t i = 1; i < fanin.size(); ++i) v = v_xor(v, in(i));
      return v;
    }
    case GateType::kXnor: {
      Vec v = in(0);
      for (std::size_t i = 1; i < fanin.size(); ++i) v = v_xor(v, in(i));
      return v_not(v);
    }
    case GateType::kMux: return v_mux(in(0), in(1), in(2));
  }
  throw std::logic_error("unknown gate type");
}

}  // namespace

Simulator::Simulator(const Netlist& netlist) : netlist_(netlist) {
  // topo_span() hits the netlist's cached order: constructing a Simulator
  // right after an is_cyclic() check costs one Kahn pass total, not two.
  if (netlist.is_cyclic()) {
    throw std::invalid_argument("Simulator requires acyclic netlist");
  }
  const std::span<const GateId> order = netlist.topo_span();
  order_.assign(order.begin(), order.end());
}

void Simulator::run_batch(std::span<const Word> inputs,
                          std::span<const Word> keys, std::size_t n_words,
                          Scratch& scratch, std::span<Word> outputs) const {
  constexpr std::size_t kW = simd::kSimdWords;
  const std::size_t n_in = netlist_.num_inputs();
  const std::size_t n_key = netlist_.num_keys();
  const std::size_t n_out = netlist_.num_outputs();
  if (inputs.size() != n_in * n_words) {
    throw std::invalid_argument("run_batch: input size mismatch");
  }
  // Keys may be given per-word (num_keys * n_words, net-major like inputs)
  // or as one word per key broadcast across the whole batch.
  const bool key_broadcast = (keys.size() == n_key);
  if (!key_broadcast && keys.size() != n_key * n_words) {
    throw std::invalid_argument("run_batch: key size mismatch");
  }
  if (outputs.size() != n_out * n_words) {
    throw std::invalid_argument("run_batch: output size mismatch");
  }
  if (n_words == 0) return;

  scratch.value.resize(netlist_.num_gates() * kW);
  Word* const val = scratch.value.data();
  const std::size_t n_blocks = (n_words + kW - 1) / kW;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t w0 = b * kW;
    const std::size_t wn = std::min(kW, n_words - w0);
    for (std::size_t i = 0; i < n_in; ++i) {
      Word* dst = val + static_cast<std::size_t>(netlist_.inputs()[i]) * kW;
      const Word* src = inputs.data() + i * n_words + w0;
      std::memcpy(dst, src, wn * sizeof(Word));
      std::fill(dst + wn, dst + kW, Word{0});
    }
    for (std::size_t k = 0; k < n_key; ++k) {
      Word* dst = val + static_cast<std::size_t>(netlist_.keys()[k]) * kW;
      if (key_broadcast) {
        std::fill(dst, dst + kW, keys[k]);
      } else {
        const Word* src = keys.data() + k * n_words + w0;
        std::memcpy(dst, src, wn * sizeof(Word));
        std::fill(dst + wn, dst + kW, Word{0});
      }
    }
    for (const GateId g : order_) {
      const GateType type = netlist_.gate_type(g);
      if (type == GateType::kInput || type == GateType::kKey) continue;
      simd::store(val + static_cast<std::size_t>(g) * kW,
                  eval_block(type, val, netlist_.fanin(g)));
    }
    for (std::size_t o = 0; o < n_out; ++o) {
      const Word* src =
          val + static_cast<std::size_t>(netlist_.outputs()[o].gate) * kW;
      std::memcpy(outputs.data() + o * n_words + w0, src, wn * sizeof(Word));
    }
  }
}

CyclicSimResult simulate_cyclic(const Netlist& netlist,
                                std::span<const Word> inputs,
                                std::span<const Word> keys,
                                long long max_sweeps, bool init_ones) {
  if (max_sweeps <= 0) {
    // 64-bit arithmetic: at a million-plus gates the old int expression
    // could overflow.
    max_sweeps = static_cast<long long>(netlist.num_gates()) + 8;
  }
  std::vector<Word> value(netlist.num_gates(), init_ones ? ~Word{0} : Word{0});
  std::vector<Word> big;
  sweep_sources(netlist, inputs, keys, value);
  for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
    const GateType t = netlist.gate_type(static_cast<GateId>(g));
    if (t == GateType::kConst1) value[g] = ~Word{0};
    if (t == GateType::kConst0) value[g] = 0;
  }
  Word changed = ~Word{0};
  for (long long sweep = 0; sweep < max_sweeps && changed != 0; ++sweep) {
    changed = 0;
    for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
      const GateId id = static_cast<GateId>(g);
      if (is_source(netlist.gate_type(id))) continue;
      const Word next = eval_gate_at(netlist, id, value, big);
      changed |= next ^ value[g];
      value[g] = next;
    }
  }
  CyclicSimResult result;
  result.converged = ~changed;  // patterns still flipping did not settle
  result.outputs.reserve(netlist.num_outputs());
  for (const OutputPort& o : netlist.outputs()) {
    result.outputs.push_back(value[o.gate]);
  }
  return result;
}

SimResult simulate(const Netlist& netlist, std::span<const Word> inputs,
                   std::span<const Word> keys, std::size_t n_words) {
  const std::size_t n_in = netlist.num_inputs();
  const std::size_t n_out = netlist.num_outputs();
  if (inputs.size() != n_in * n_words || keys.size() != netlist.num_keys()) {
    throw std::invalid_argument("simulate: stimulus width mismatch");
  }
  SimResult result{std::vector<Word>(n_out * n_words),
                   std::vector<Word>(n_words, ~Word{0})};
  // is_cyclic() fills the netlist's graph cache; the Simulator constructor
  // reuses it, so the acyclic path runs a single Kahn pass.
  if (!netlist.is_cyclic()) {
    Simulator::Scratch scratch;
    Simulator(netlist).run_batch(inputs, keys, n_words, scratch,
                                 result.outputs);
    return result;
  }
  std::vector<Word> in(n_in);
  for (std::size_t w = 0; w < n_words; ++w) {
    for (std::size_t i = 0; i < n_in; ++i) in[i] = inputs[i * n_words + w];
    const CyclicSimResult r = simulate_cyclic(netlist, in, keys);
    for (std::size_t o = 0; o < n_out; ++o) {
      result.outputs[o * n_words + w] = r.outputs[o];
    }
    result.converged[w] = r.converged;
  }
  return result;
}

std::vector<Word> broadcast(const std::vector<bool>& bits) {
  std::vector<Word> words(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    words[i] = bits[i] ? ~Word{0} : Word{0};
  }
  return words;
}

std::vector<bool> eval_once(const Netlist& netlist,
                            const std::vector<bool>& inputs,
                            const std::vector<bool>& keys) {
  const std::vector<Word> words =
      simulate(netlist, broadcast(inputs), broadcast(keys), 1).outputs;
  std::vector<bool> out(words.size());
  for (std::size_t o = 0; o < words.size(); ++o) out[o] = (words[o] & 1) != 0;
  return out;
}

}  // namespace fl::netlist

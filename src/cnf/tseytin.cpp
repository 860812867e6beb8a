#include "cnf/tseytin.h"

#include <algorithm>
#include <stdexcept>

namespace fl::cnf {

using netlist::Gate;
using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using sat::Lit;
using sat::Var;

namespace {

class Encoder {
 public:
  Encoder(ClauseSink& sink, EncodedCircuit& out) : sink_(sink), out_(out) {}

  Var fresh() {
    ++out_.vars_added;
    return sink_.new_var();
  }

  // Adds a clause over NetLits: const-1 literals satisfy the clause (it is
  // dropped), const-0 literals are removed.
  void emit(std::initializer_list<NetLit> lits) {
    sat::Clause clause;
    for (const NetLit& n : lits) {
      if (n.is_const()) {
        if (n.const_value()) return;  // satisfied
        continue;                     // falsified literal drops out
      }
      clause.push_back(n.lit);
    }
    ++out_.clauses_added;
    sink_.add_clause(std::move(clause));
  }

  void emit_vec(sat::Clause clause) {
    ++out_.clauses_added;
    sink_.add_clause(std::move(clause));
  }

  // out <-> AND(fanins) / OR(fanins), with `invert_inputs` for the OR dual.
  void define_and(NetLit out, std::span<const NetLit> fanins) {
    // out -> f_i, and (AND f_i) -> out.
    for (const NetLit& f : fanins) emit({~out, f});
    // clause: {~f_0, ..., ~f_k, out}
    sat::Clause big;
    bool satisfied = false;
    for (const NetLit& f : fanins) {
      const NetLit nf = ~f;
      if (nf.is_const()) {
        if (nf.const_value()) {
          satisfied = true;
          break;
        }
        continue;
      }
      big.push_back(nf.lit);
    }
    if (!satisfied) {
      if (!out.is_const()) {
        big.push_back(out.lit);
      } else if (out.const_value()) {
        return;  // clause satisfied by constant out
      }
      emit_vec(std::move(big));
    }
  }

  void define_or(NetLit out, std::span<const NetLit> fanins) {
    // OR(f) = ~AND(~f): define ~out <-> AND(~f_i).
    std::vector<NetLit> inv;
    inv.reserve(fanins.size());
    for (const NetLit& f : fanins) inv.push_back(~f);
    define_and(~out, inv);
  }

  void define_xor(NetLit out, NetLit a, NetLit b) {
    emit({~a, ~b, ~out});
    emit({a, b, ~out});
    emit({a, ~b, out});
    emit({~a, b, out});
  }

  void define_mux(NetLit out, NetLit s, NetLit a, NetLit b) {
    // out = s ? b : a  (Table 1: C = A·~S + B·S)
    emit({s, ~a, out});
    emit({s, a, ~out});
    emit({~s, ~b, out});
    emit({~s, b, ~out});
  }

  void define_equal(NetLit out, NetLit in) {
    emit({~out, in});
    emit({out, ~in});
  }

  // ---- folding constructors (return a NetLit, allocate vars lazily) ----

  NetLit make_and(std::vector<NetLit> fanins, bool negate_out) {
    std::vector<NetLit> lits;
    for (const NetLit& f : fanins) {
      if (f.is_const()) {
        if (!f.const_value()) return NetLit::constant(negate_out);
        continue;  // AND with 1 is identity
      }
      lits.push_back(f);
    }
    if (lits.empty()) return NetLit::constant(!negate_out);
    if (lits.size() == 1) return negate_out ? ~lits[0] : lits[0];
    const NetLit out = NetLit::of(sat::pos(fresh()));
    define_and(out, lits);
    return negate_out ? ~out : out;
  }

  NetLit make_or(std::vector<NetLit> fanins, bool negate_out) {
    for (NetLit& f : fanins) f = ~f;
    return ~make_and(std::move(fanins), negate_out);
  }

  NetLit make_xor2(NetLit a, NetLit b) {
    if (a.is_const()) return a.const_value() ? ~b : b;
    if (b.is_const()) return b.const_value() ? ~a : a;
    if (a.lit == b.lit) return NetLit::constant(false);
    if (a.lit == ~b.lit) return NetLit::constant(true);
    const NetLit out = NetLit::of(sat::pos(fresh()));
    define_xor(out, a, b);
    return out;
  }

  NetLit make_xor(std::span<const NetLit> fanins, bool negate_out) {
    NetLit acc = fanins[0];
    for (std::size_t i = 1; i < fanins.size(); ++i) {
      acc = make_xor2(acc, fanins[i]);
    }
    return negate_out ? ~acc : acc;
  }

  NetLit make_mux(NetLit s, NetLit a, NetLit b) {
    if (s.is_const()) return s.const_value() ? b : a;
    if (a.is_const() && b.is_const()) {
      if (a.const_value() == b.const_value()) return a;
      return b.const_value() ? s : ~s;
    }
    if (!a.is_const() && !b.is_const() && a.lit == b.lit) return a;
    if (a.is_const()) {
      // out = s ? b : const
      return a.const_value() ? make_or({~s, b}, false)   // ~s | b
                             : make_and({s, b}, false);  // s & b
    }
    if (b.is_const()) {
      return b.const_value() ? make_or({s, a}, false)     // s | a
                             : make_and({~s, a}, false);  // ~s & a
    }
    const NetLit out = NetLit::of(sat::pos(fresh()));
    define_mux(out, s, a, b);
    return out;
  }

  NetLit fold_gate(const Gate& gate, std::vector<NetLit> fan) {
    switch (gate.type) {
      case GateType::kBuf: return fan[0];
      case GateType::kNot: return ~fan[0];
      case GateType::kAnd: return make_and(std::move(fan), false);
      case GateType::kNand: return make_and(std::move(fan), true);
      case GateType::kOr: return make_or(std::move(fan), false);
      case GateType::kNor: return make_or(std::move(fan), true);
      case GateType::kXor: return make_xor(fan, false);
      case GateType::kXnor: return make_xor(fan, true);
      case GateType::kMux: return make_mux(fan[0], fan[1], fan[2]);
      default: throw std::logic_error("fold_gate: unexpected source gate");
    }
  }

  // Non-folding: `out` is a pre-allocated variable; emit defining clauses.
  void define_gate(NetLit out, const Gate& gate, std::span<const NetLit> fan) {
    switch (gate.type) {
      case GateType::kBuf:
        define_equal(out, fan[0]);
        return;
      case GateType::kNot:
        define_equal(out, ~fan[0]);
        return;
      case GateType::kAnd:
        define_and(out, fan);
        return;
      case GateType::kNand:
        define_and(~out, fan);
        return;
      case GateType::kOr:
        define_or(out, fan);
        return;
      case GateType::kNor:
        define_or(~out, fan);
        return;
      case GateType::kXor:
      case GateType::kXnor: {
        NetLit acc = fan[0];
        for (std::size_t i = 1; i + 1 < fan.size(); ++i) {
          const NetLit aux = NetLit::of(sat::pos(fresh()));
          define_xor(aux, acc, fan[i]);
          acc = aux;
        }
        const NetLit target = gate.type == GateType::kXor ? out : ~out;
        define_xor(target, acc, fan.back());
        return;
      }
      case GateType::kMux:
        define_mux(out, fan[0], fan[1], fan[2]);
        return;
      default:
        throw std::logic_error("define_gate: unexpected source gate");
    }
  }

 private:
  ClauseSink& sink_;
  EncodedCircuit& out_;
};

// Variable source for the shadow pass of prune_dead_logic: hands out fresh
// ids above every real variable the options can inject, drops all clauses.
class ShadowSink final : public ClauseSink {
 public:
  explicit ShadowSink(Var first) : next_(first) {}
  Var new_var() override { return next_++; }
  void add_clause(sat::Clause) override {}

 private:
  Var next_;
};

EncodedCircuit encode_impl(const Netlist& netlist, ClauseSink& sink,
                           const EncodeOptions& options,
                           const std::vector<char>* needed,
                           const EncodedCircuit* shadow);

}  // namespace

EncodedCircuit encode(const Netlist& netlist, ClauseSink& sink,
                      const EncodeOptions& options) {
  const bool cone_mode = !options.frontier_lits.empty();
  if (!options.fixed_inputs.empty() &&
      options.fixed_inputs.size() != netlist.num_inputs()) {
    throw std::invalid_argument("fixed_inputs size mismatch");
  }
  if (!options.shared_key_vars.empty() &&
      options.shared_key_vars.size() != netlist.num_keys()) {
    throw std::invalid_argument("shared_key_vars size mismatch");
  }
  if (!options.shared_input_vars.empty()) {
    if (options.shared_input_vars.size() != netlist.num_inputs()) {
      throw std::invalid_argument("shared_input_vars size mismatch");
    }
    if (!options.fixed_inputs.empty()) {
      throw std::invalid_argument(
          "shared_input_vars and fixed_inputs are mutually exclusive");
    }
  }
  if (cone_mode) {
    if (options.frontier_lits.size() != netlist.num_gates()) {
      throw std::invalid_argument("frontier_lits size mismatch");
    }
    if (!options.fixed_inputs.empty() || options.inputs_as_unit_clauses ||
        !options.shared_input_vars.empty() || !options.restrict_topo.empty() ||
        !options.fold_constants) {
      throw std::invalid_argument(
          "cone-restricted encode is incompatible with input fixing/sharing, "
          "restrict_topo and unfolded encoding");
    }
  }
  if (!options.restrict_topo.empty() &&
      (!options.fold_constants || netlist.is_cyclic())) {
    throw std::invalid_argument(
        "restrict_topo needs fold_constants and an acyclic netlist");
  }
  if (options.prune_dead_logic) {
    if (!options.fold_constants || netlist.is_cyclic()) {
      throw std::invalid_argument(
          "prune_dead_logic needs fold_constants and an acyclic netlist");
    }
    // Shadow pass: same fold walk, clauses discarded, fresh variables drawn
    // from above every injected real variable so literal-identity folding
    // (XOR cancellation, MUX collapse) behaves exactly as the real pass
    // will. The walks are isomorphic up to an injective variable renaming,
    // so a gate folds to a constant in the shadow pass iff it does in the
    // emitting pass.
    Var max_var = 0;
    for (const Var v : options.shared_key_vars) max_var = std::max(max_var, v);
    for (const Var v : options.shared_input_vars) {
      max_var = std::max(max_var, v);
    }
    for (const NetLit& n : options.frontier_lits) {
      if (!n.is_const()) max_var = std::max(max_var, n.lit.var());
    }
    ShadowSink shadow_sink(max_var + 1);
    const EncodedCircuit shadow =
        encode_impl(netlist, shadow_sink, options, nullptr, nullptr);
    // Fanin cone of every output that stayed symbolic; everything else is
    // either constant (its value survives into the real pass) or feeds only
    // constant-valued outputs and is dropped.
    std::vector<char> needed(netlist.num_gates(), 0);
    std::vector<GateId> stack;
    for (const netlist::OutputPort& o : netlist.outputs()) {
      if (!shadow.net[o.gate].is_const() && !needed[o.gate]) {
        needed[o.gate] = 1;
        stack.push_back(o.gate);
      }
    }
    while (!stack.empty()) {
      const GateId g = stack.back();
      stack.pop_back();
      for (const GateId f : netlist.fanin(g)) {
        if (!needed[f] && !shadow.net[f].is_const()) {
          needed[f] = 1;
          stack.push_back(f);
        }
      }
    }
    return encode_impl(netlist, sink, options, &needed, &shadow);
  }
  return encode_impl(netlist, sink, options, nullptr, nullptr);
}

namespace {

EncodedCircuit encode_impl(const Netlist& netlist, ClauseSink& sink,
                           const EncodeOptions& options,
                           const std::vector<char>* needed,
                           const EncodedCircuit* shadow) {
  const bool cone_mode = !options.frontier_lits.empty();
  EncodedCircuit out;
  Encoder enc(sink, out);
  if (cone_mode) {
    // Every net starts at its frontier value; the cone walk below overwrites
    // exactly the key gates and the cone gates.
    out.net.assign(options.frontier_lits.begin(), options.frontier_lits.end());
  } else {
    out.net.assign(netlist.num_gates(), NetLit::constant(false));
  }
  out.input_vars.assign(netlist.num_inputs(), sat::kNullVar);
  out.key_vars.assign(netlist.num_keys(), sat::kNullVar);

  // Sources first (identical for every path; cone mode reads its inputs out
  // of frontier_lits and allocates no input variables).
  if (!cone_mode) {
    for (std::size_t i = 0; i < netlist.num_inputs(); ++i) {
      const GateId g = netlist.inputs()[i];
      if (!options.shared_input_vars.empty()) {
        const Var v = options.shared_input_vars[i];
        out.input_vars[i] = v;
        out.net[g] = NetLit::of(sat::pos(v));
      } else if (!options.fixed_inputs.empty() &&
                 !options.inputs_as_unit_clauses) {
        out.net[g] = NetLit::constant(options.fixed_inputs[i]);
      } else {
        const Var v = enc.fresh();
        out.input_vars[i] = v;
        out.net[g] = NetLit::of(sat::pos(v));
        if (!options.fixed_inputs.empty()) {
          enc.emit({NetLit::of(sat::Lit(v, !options.fixed_inputs[i]))});
        }
      }
    }
  }
  for (std::size_t i = 0; i < netlist.num_keys(); ++i) {
    const GateId g = netlist.keys()[i];
    const Var v = options.shared_key_vars.empty() ? enc.fresh()
                                                  : options.shared_key_vars[i];
    out.key_vars[i] = v;
    out.net[g] = NetLit::of(sat::pos(v));
  }
  if (!cone_mode) {
    for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
      const GateType t = netlist.gate(static_cast<GateId>(g)).type;
      if (t == GateType::kConst0) out.net[g] = NetLit::constant(false);
      if (t == GateType::kConst1) out.net[g] = NetLit::constant(true);
    }
  }

  const auto fold_walk = [&](std::span<const GateId> walk) {
    for (const GateId g : walk) {
      const Gate& gate = netlist.gate(g);
      if (netlist::is_source(gate.type)) continue;
      if (needed != nullptr && !(*needed)[g]) {
        // Pruned gate: constants survive (an emitted consumer may read
        // them); symbolic values are read only by other pruned gates.
        if (shadow->net[g].is_const()) out.net[g] = shadow->net[g];
        continue;
      }
      std::vector<NetLit> fan;
      fan.reserve(gate.fanin.size());
      for (const GateId f : gate.fanin) fan.push_back(out.net[f]);
      out.net[g] = enc.fold_gate(gate, std::move(fan));
    }
  };

  if (cone_mode) {
    fold_walk(options.cone_topo);
  } else if (!options.restrict_topo.empty()) {
    fold_walk(options.restrict_topo);
  } else if (options.fold_constants && !netlist.is_cyclic()) {
    fold_walk(netlist.topo_span());
  } else {
    // Gate-per-variable encoding (works for cyclic netlists).
    for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
      const Gate& gate = netlist.gate(static_cast<GateId>(g));
      if (netlist::is_source(gate.type)) continue;
      out.net[g] = NetLit::of(sat::pos(enc.fresh()));
    }
    for (std::size_t g = 0; g < netlist.num_gates(); ++g) {
      const Gate& gate = netlist.gate(static_cast<GateId>(g));
      if (netlist::is_source(gate.type)) continue;
      std::vector<NetLit> fan;
      fan.reserve(gate.fanin.size());
      for (const GateId f : gate.fanin) fan.push_back(out.net[f]);
      enc.define_gate(out.net[g], gate, fan);
    }
  }

  out.outputs.reserve(netlist.num_outputs());
  for (const netlist::OutputPort& o : netlist.outputs()) {
    out.outputs.push_back(out.net[o.gate]);
  }
  return out;
}

}  // namespace

sat::Cnf to_cnf(const Netlist& netlist) {
  sat::Cnf cnf;
  CnfSink sink(cnf);
  encode(netlist, sink, EncodeOptions{});
  return cnf;
}

NetLit encode_difference(std::span<const NetLit> a, std::span<const NetLit> b,
                         ClauseSink& sink) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("encode_difference: size mismatch");
  }
  EncodedCircuit scratch;
  Encoder enc(sink, scratch);
  std::vector<NetLit> diffs;
  diffs.reserve(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const NetLit d = enc.make_xor2(a[i], b[i]);
    if (d.is_const()) {
      if (d.const_value()) return NetLit::constant(true);
      continue;
    }
    diffs.push_back(d);
  }
  if (diffs.empty()) return NetLit::constant(false);
  if (diffs.size() == 1) return diffs[0];
  return enc.make_or(std::move(diffs), false);
}

NetLit emit_and(ClauseSink& sink, std::vector<NetLit> terms) {
  EncodedCircuit scratch;
  Encoder enc(sink, scratch);
  if (terms.empty()) return NetLit::constant(true);
  return enc.make_and(std::move(terms), false);
}

NetLit emit_or(ClauseSink& sink, std::vector<NetLit> terms) {
  EncodedCircuit scratch;
  Encoder enc(sink, scratch);
  if (terms.empty()) return NetLit::constant(false);
  return enc.make_or(std::move(terms), false);
}

NetLit emit_xor(ClauseSink& sink, NetLit a, NetLit b) {
  EncodedCircuit scratch;
  Encoder enc(sink, scratch);
  return enc.make_xor2(a, b);
}

void assert_true(ClauseSink& sink, NetLit lit) {
  if (lit.is_const()) {
    if (!lit.const_value()) sink.add_clause({});
    return;
  }
  sink.add_clause({lit.lit});
}

}  // namespace fl::cnf

#include "cnf/miter.h"

#include <random>
#include <stdexcept>

#include "netlist/optimize.h"
#include "sat/preprocess.h"

namespace fl::cnf {

using netlist::GateId;
using netlist::Netlist;
using sat::Lit;
using sat::Var;

AttackMiter encode_attack_miter(const Netlist& locked,
                                sat::SolverIface& solver,
                                netlist::KeyConePartition* cone) {
  SolverSink sink(solver);
  if (locked.num_keys() == 0) {
    // No key inputs: both copies are identical functions by construction.
    AttackMiter miter;
    miter.trivially_equal = true;
    miter.activate = sat::pos(solver.new_var());
    return miter;
  }
  EncodeOptions options;  // inputs free, fresh keys
  if (cone != nullptr) {
    // Key-independent outputs are equal in both copies whatever the keys
    // are, so the miter only needs the fanin cone of the key-dependent
    // outputs from the full copy.
    options.restrict_topo = cone->support_topo();
  }
  const EncodedCircuit copy1 = encode(locked, sink, options);

  // Second copy with its own key set, built directly over the first copy's
  // input variables. (An earlier version allocated a second input vector
  // and tied the copies with 2n equality clauses; the solver then had to
  // re-derive x1_i = x2_i by propagation in every conflict, and the extra
  // variables diluted VSIDS onto literals that carry no information.)
  EncodeOptions options2;
  if (cone != nullptr) {
    // Cone-restricted second copy: everything outside the key cone is the
    // same function of the same inputs in both copies, so it is *shared*
    // (via copy1's nets) rather than re-encoded, and the output difference
    // below folds the key-independent ports away structurally.
    options2.cone_topo = cone->cone_topo();
    options2.frontier_lits = copy1.net;
  } else {
    options2.shared_input_vars = copy1.input_vars;
  }
  const EncodedCircuit copy2 = encode(locked, sink, options2);

  AttackMiter miter;
  miter.inputs = copy1.input_vars;
  miter.key1 = copy1.key_vars;
  miter.key2 = copy2.key_vars;
  miter.outputs1 = copy1.outputs;
  miter.outputs2 = copy2.outputs;

  const NetLit diff = encode_difference(copy1.outputs, copy2.outputs, sink);
  if (diff.is_const()) {
    if (diff.const_value()) {
      // Outputs always differ: degenerate, signal via an always-true lit.
      const Var t = solver.new_var();
      solver.add_clause({sat::pos(t)});
      miter.activate = sat::pos(t);
    } else {
      miter.trivially_equal = true;
      const Var t = solver.new_var();
      miter.activate = sat::pos(t);
    }
    return miter;
  }
  // Fresh activation literal: act -> diff.
  const Var act = solver.new_var();
  solver.add_clause({sat::neg(act), diff.lit});
  miter.activate = sat::pos(act);
  return miter;
}

namespace {

// Pins every encoded output to the oracle response; a constant output that
// contradicts the response empties the key space (matches what folding the
// mismatch through a unit clause would do).
void pin_outputs(ClauseSink& sink, const EncodedCircuit& copy,
                 const std::vector<bool>& response) {
  for (std::size_t i = 0; i < response.size(); ++i) {
    const NetLit o = copy.outputs[i];
    if (o.is_const()) {
      if (o.const_value() != response[i]) {
        sink.add_clause({});  // contradiction: key space empty
      }
      continue;
    }
    sink.add_clause({response[i] ? o.lit : ~o.lit});
  }
}

// Collects one DIP constraint (the circuit copy and its output pins) in a
// Simplifier and commits its projection onto each key copy in turn. The
// encoder sees ids from base_ = the solver's size up, for the key variables
// (local_keys()) and the fresh ones; id base_ + i is local simplifier
// variable i, and the keys are the frozen locals [0, #keys).
//
// The constraint is the same for every key copy up to renaming the keys, so
// it is encoded and projected once. commit() then gives each copy, in order,
// exactly what projecting it on its own would: the units on that copy's
// keys, fresh solver variables for the surviving locals (in local order),
// and the surviving clauses renamed onto them.
//
// Soundness: nothing after the commit (later clauses, assumptions, model
// reads) mentions a fresh variable of this copy, so existentially
// quantifying them away leaves the admitted keys unchanged. Unit propagation
// and bounded variable elimination are exactly such quantifications (DP
// resolution), with every pre-existing variable frozen.
class ProjectingSink final : public ClauseSink {
 public:
  ProjectingSink(sat::SolverIface& solver, const Netlist& locked,
                 std::span<const std::vector<Var>> key_copies)
      : solver_(solver), base_(solver.num_vars()) {
    for (const std::vector<Var>& keys : key_copies) {
      if (keys.size() != locked.num_keys()) {
        throw std::invalid_argument("add_io_constraint: key copy size mismatch");
      }
    }
    local_keys_.reserve(locked.num_keys());
    for (std::size_t i = 0; i < locked.num_keys(); ++i) {
      const Var v = simp_.new_var();
      simp_.freeze(v);
      local_keys_.push_back(base_ + v);
    }
  }
  std::span<const Var> local_keys() const { return local_keys_; }

  Var new_var() override { return base_ + simp_.new_var(); }
  void add_clause(sat::Clause clause) override {
    for (Lit& l : clause) {
      if (l.var() < base_) {
        throw std::invalid_argument(
            "add_io_constraint_cone: frontier_lits must be constants");
      }
      l = Lit(l.var() - base_, l.negated());
    }
    simp_.add_clause(std::move(clause));
  }

  void commit(std::span<const std::vector<Var>> key_copies);

 private:
  sat::SolverIface& solver_;
  const Var base_;
  sat::Simplifier simp_;
  std::vector<Var> local_keys_;
};

void ProjectingSink::commit(std::span<const std::vector<Var>> key_copies) {
  simp_.simplify(/*subsume=*/false);
  if (simp_.contradiction()) {
    for (std::size_t c = 0; c < key_copies.size(); ++c) solver_.add_clause({});
    return;
  }
  const Var num_keys = static_cast<Var>(local_keys_.size());
  const std::vector<sat::Clause> kept = simp_.take_clauses();
  // The fresh locals a surviving clause still mentions get solver variables.
  std::vector<char> used(static_cast<std::size_t>(simp_.num_vars()), 0);
  for (const sat::Clause& clause : kept) {
    for (const Lit l : clause) used[static_cast<std::size_t>(l.var())] = 1;
  }
  std::vector<Var> origin(used.size(), sat::kNullVar);  // local -> solver
  for (const std::vector<Var>& keys : key_copies) {
    // Units that propagation pinned on the copy's keys.
    for (Var v = 0; v < num_keys; ++v) {
      origin[v] = keys[v];
      const sat::LBool a = simp_.value(v);
      if (a != sat::LBool::kUndef) {
        solver_.add_clause({Lit(keys[v], a == sat::LBool::kFalse)});
      }
    }
    for (Var v = num_keys; v < simp_.num_vars(); ++v) {
      if (used[v]) origin[v] = solver_.new_var();
    }
    for (const sat::Clause& clause : kept) {
      sat::Clause renamed;
      renamed.reserve(clause.size());
      for (const Lit l : clause) {
        renamed.push_back(Lit(origin[l.var()], l.negated()));
      }
      solver_.add_clause(std::move(renamed));
    }
  }
}

}  // namespace

void add_io_constraint(const Netlist& locked, sat::SolverIface& solver,
                       std::span<const std::vector<sat::Var>> key_copies,
                       const std::vector<bool>& pattern,
                       const std::vector<bool>& response) {
  if (response.size() != locked.num_outputs()) {
    throw std::invalid_argument("add_io_constraint: response size mismatch");
  }
  ProjectingSink sink(solver, locked, key_copies);
  EncodeOptions options;
  options.fixed_inputs = pattern;
  options.shared_key_vars = sink.local_keys();
  const EncodedCircuit copy = encode(locked, sink, options);
  pin_outputs(sink, copy, response);
  sink.commit(key_copies);
}

void add_io_constraint_cone(const Netlist& locked, sat::SolverIface& solver,
                            std::span<const std::vector<sat::Var>> key_copies,
                            std::span<const netlist::GateId> cone_topo,
                            std::span<const NetLit> frontier_lits,
                            const std::vector<bool>& response) {
  if (response.size() != locked.num_outputs()) {
    throw std::invalid_argument(
        "add_io_constraint_cone: response size mismatch");
  }
  ProjectingSink sink(solver, locked, key_copies);
  EncodeOptions options;
  options.cone_topo = cone_topo;
  options.frontier_lits = frontier_lits;
  options.shared_key_vars = sink.local_keys();
  // With the frontier swept to constants, most of the key cone folds off the
  // pinned outputs (a masked fanin kills the key dependence long before an
  // output port); only the residue that still reaches a symbolic output pin
  // carries information about the key.
  options.prune_dead_logic = true;
  const EncodedCircuit copy = encode(locked, sink, options);
  pin_outputs(sink, copy, response);
  sink.commit(key_copies);
}

double deobfuscation_cnf_ratio(const Netlist& locked, int num_dips,
                               std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  sat::Cnf cnf;
  CnfSink sink(cnf);

  // Double-key miter: two unfolded copies sharing input variables via
  // equality clauses, plus the output-difference tree.
  EncodeOptions raw;
  raw.fold_constants = false;
  const EncodedCircuit copy1 = encode(locked, sink, raw);
  const EncodedCircuit copy2 = encode(locked, sink, raw);
  for (std::size_t i = 0; i < copy1.input_vars.size(); ++i) {
    const sat::Lit a = sat::pos(copy1.input_vars[i]);
    const sat::Lit b = sat::pos(copy2.input_vars[i]);
    cnf.add({~a, b});
    cnf.add({a, ~b});
  }
  const NetLit diff = encode_difference(copy1.outputs, copy2.outputs, sink);
  if (!diff.is_const()) cnf.add({diff.lit});

  // DIP constraint copies: random fixed inputs as unit clauses, outputs
  // pinned (the pin value does not change the count).
  for (int d = 0; d < num_dips; ++d) {
    EncodeOptions dip;
    dip.fold_constants = false;
    dip.inputs_as_unit_clauses = true;
    dip.fixed_inputs.resize(locked.num_inputs());
    for (std::size_t i = 0; i < locked.num_inputs(); ++i) {
      dip.fixed_inputs[i] = (rng() & 1) != 0;
    }
    dip.shared_key_vars = (d % 2 == 0) ? copy1.key_vars : copy2.key_vars;
    const EncodedCircuit copy = encode(locked, sink, dip);
    for (const NetLit& o : copy.outputs) {
      if (!o.is_const()) cnf.add({(rng() & 1) != 0 ? o.lit : ~o.lit});
    }
  }
  return cnf.clause_to_var_ratio();
}

bool check_equivalence(const Netlist& a, const std::vector<bool>& key_a,
                       const Netlist& b, const std::vector<bool>& key_b,
                       std::vector<bool>* counterexample) {
  if (a.num_inputs() != b.num_inputs() || a.num_outputs() != b.num_outputs()) {
    throw std::invalid_argument("check_equivalence: interface mismatch");
  }
  if (key_a.size() != a.num_keys() || key_b.size() != b.num_keys()) {
    throw std::invalid_argument("check_equivalence: key size mismatch");
  }
  // Both netlists with their keys folded in, over shared primary inputs.
  // Constant folding and structural hashing then merge every output pair
  // whose two sides reduce to the same node.
  Netlist both("miter");
  std::vector<GateId> inputs;
  for (const GateId g : a.inputs()) {
    inputs.push_back(both.add_input(a.gate_name(g)));
  }
  for (const GateId g : netlist::append_specialized(both, inputs, a, key_a)) {
    both.mark_output(g);
  }
  for (const GateId g : netlist::append_specialized(both, inputs, b, key_b)) {
    both.mark_output(g);
  }
  Netlist merged = netlist::optimize(both);

  // Only the pairs that did not merge reach the solver, encoded from their
  // own fanin cone.
  const std::size_t n = a.num_outputs();
  std::vector<GateId> lhs, rhs;
  for (std::size_t i = 0; i < n; ++i) {
    const GateId x = merged.outputs()[i].gate;
    const GateId y = merged.outputs()[n + i].gate;
    if (x != y) {
      lhs.push_back(x);
      rhs.push_back(y);
    }
  }
  if (lhs.empty()) return true;
  merged.clear_outputs();
  for (const GateId g : lhs) merged.mark_output(g);
  for (const GateId g : rhs) merged.mark_output(g);
  const Netlist cone = netlist::compact(merged);

  sat::Solver solver;
  SolverSink sink(solver);
  const EncodedCircuit enc = encode(cone, sink);
  const std::span<const NetLit> outputs = enc.outputs;
  const NetLit diff = encode_difference(outputs.first(lhs.size()),
                                        outputs.subspan(lhs.size()), sink);
  if (diff.is_const()) {
    if (!diff.const_value()) return true;
    // The outputs differ on every pattern, all-zero included.
    if (counterexample != nullptr) {
      counterexample->assign(a.num_inputs(), false);
    }
    return false;
  }
  solver.add_clause({diff.lit});
  if (solver.solve() == sat::LBool::kFalse) return true;
  if (counterexample != nullptr) {
    counterexample->assign(a.num_inputs(), false);
    for (std::size_t i = 0; i < enc.input_vars.size(); ++i) {
      (*counterexample)[i] = solver.value_of(enc.input_vars[i]);
    }
  }
  return false;
}

}  // namespace fl::cnf

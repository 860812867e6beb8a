#include "attacks/double_dip.h"

#include <algorithm>
#include <optional>

#include "attacks/sat_attack.h"
#include "cnf/tseytin.h"

namespace fl::attacks {

namespace {

std::vector<cnf::NetLit> key_lits(const cnf::EncodedCircuit& copy) {
  std::vector<cnf::NetLit> lits;
  lits.reserve(copy.key_vars.size());
  for (const sat::Var v : copy.key_vars) {
    lits.push_back(cnf::NetLit::of(sat::pos(v)));
  }
  return lits;
}

// The 2-DIP miter: four circuit copies sharing the primary inputs. A 2-DIP
// is an input x with two *distinct* keys (k1 != k2) agreeing on one output
// vector and two distinct keys (k3 != k4) agreeing on a different one;
// whichever side the oracle contradicts, at least two wrong keys die per
// query (Shen & Zhou's guarantee).
MiterContext::Parts encode_two_dip_miter(const netlist::Netlist& net,
                                         sat::SolverIface& solver,
                                         netlist::KeyConePartition* cone) {
  cnf::SolverSink sink(solver);
  // With a partition, copy A is restricted to the fanin support of the
  // key-dependent outputs and copies B/C/D re-encode only the key cone over
  // A's nets — the shared key-free region is encoded once instead of four
  // times. Output differences over key-independent ports fold away.
  cnf::EncodeOptions first;
  if (cone != nullptr) first.restrict_topo = cone->support_topo();
  const cnf::EncodedCircuit a = cnf::encode(net, sink, first);
  cnf::EncodeOptions shared;
  if (cone != nullptr) {
    shared.cone_topo = cone->cone_topo();
    shared.frontier_lits = a.net;
  } else {
    shared.shared_input_vars = a.input_vars;
  }
  const cnf::EncodedCircuit b = cnf::encode(net, sink, shared);
  const cnf::EncodedCircuit c = cnf::encode(net, sink, shared);
  const cnf::EncodedCircuit d = cnf::encode(net, sink, shared);

  const cnf::NetLit ab_out_diff =
      cnf::encode_difference(a.outputs, b.outputs, sink);
  const cnf::NetLit cd_out_diff =
      cnf::encode_difference(c.outputs, d.outputs, sink);
  const cnf::NetLit ac_out_diff =
      cnf::encode_difference(a.outputs, c.outputs, sink);
  const std::vector<cnf::NetLit> ka = key_lits(a), kb = key_lits(b),
                                 kc = key_lits(c), kd = key_lits(d);
  const cnf::NetLit ab_key_diff = cnf::encode_difference(ka, kb, sink);
  const cnf::NetLit cd_key_diff = cnf::encode_difference(kc, kd, sink);

  MiterContext::Parts parts;
  parts.inputs = a.input_vars;
  parts.key_copies = {a.key_vars, b.key_vars, c.key_vars, d.key_vars};
  if (ac_out_diff.is_const() && !ac_out_diff.const_value()) {
    // Output never depends on the key: any key unlocks.
    parts.trivially_equal = true;
    return parts;
  }

  // Activation: (A==B) & (C==D) & (A!=C) & (kA!=kB) & (kC!=kD).
  const sat::Var act = solver.new_var();
  const auto guard = [&](cnf::NetLit condition, bool want) {
    if (condition.is_const()) {
      if (condition.const_value() != want) solver.add_clause({sat::neg(act)});
      return;
    }
    solver.add_clause({sat::neg(act), want ? condition.lit : ~condition.lit});
  };
  guard(ab_out_diff, false);
  guard(cd_out_diff, false);
  guard(ac_out_diff, true);
  guard(ab_key_diff, true);
  guard(cd_key_diff, true);
  parts.activate = sat::pos(act);
  return parts;
}

// The 2-DIP policy: one oracle query per 2-DIP, I/O constraints on all four
// key copies; when no 2-DIP remains, mop up with the plain SAT attack
// (keys the weaker 2-DIP condition cannot distinguish), reusing whatever
// budget is left.
class DoubleDipPolicy final : public DipPolicy {
 public:
  DoubleDipPolicy(const netlist::Netlist& locked, const Oracle& oracle,
                  const AttackOptions& options)
      : locked_(locked), oracle_(oracle), options_(options) {}

  const std::optional<AttackResult>& mop_up() const { return mop_up_; }

  LoopAction on_dip(MiterContext& ctx, const BudgetGuard&,
                    const std::vector<bool>& pattern, AttackResult&) override {
    ctx.constrain_io(pattern, oracle_.query(pattern));
    return LoopAction::kContinue;
  }

  LoopAction on_no_dip(MiterContext&, const BudgetGuard& budget,
                       AttackResult& result) override {
    AttackOptions rest = options_;
    if (budget.limited()) {
      rest.timeout_s = std::max(0.1, budget.remaining_s());
    }
    mop_up_ = sat_attack(locked_, oracle_, rest).result;
    result.status = mop_up_->status;
    result.key = mop_up_->key;
    result.key_confirmed = mop_up_->key_confirmed;
    result.banned_keys += mop_up_->banned_keys;
    return LoopAction::kDone;
  }

 private:
  const netlist::Netlist& locked_;
  const Oracle& oracle_;
  const AttackOptions& options_;
  std::optional<AttackResult> mop_up_;
};

}  // namespace

RunResult double_dip_attack(const netlist::Netlist& locked,
                            const Oracle& oracle,
                            const AttackOptions& options) {
  RunResult run{"double-dip", {}, {}};
  AttackResult& result = run.result;
  std::uint64_t fallback_iterations = 0;
  if (locked.num_keys() == 0) {
    result.status = AttackStatus::kSuccess;
  } else {
    const BudgetGuard budget(options);
    MiterContext ctx(locked, encode_two_dip_miter, options);
    DoubleDipPolicy policy(locked, oracle, options);
    result = DipLoop(oracle, options, budget, "double-dip").run(ctx, policy);
    if (policy.mop_up().has_value()) {
      // The decisive solve was the mop-up's, not the 2-DIP miter's: surface
      // its stop reason (the engine stamped the 2-DIP solver's, i.e. kNone)
      // and count its DIP-loop queries separately.
      result.stop_reason = policy.mop_up()->stop_reason;
      fallback_iterations = policy.mop_up()->iterations;
    }
  }
  run.detail.field("fallback_iterations", fallback_iterations);
  return run;
}

}  // namespace fl::attacks

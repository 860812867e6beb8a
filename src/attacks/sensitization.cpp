#include "attacks/sensitization.h"

#include <random>

#include "cnf/miter.h"

namespace fl::attacks {

namespace {

// Attempts to recover key bit `target` with golden-pattern sensitization,
// treating already-`known` bits as constants (iterative peeling). Returns
// -1 (unresolved) or the recovered bit.
int attack_one_key(const netlist::Netlist& net, const Oracle& oracle,
                   std::size_t target, const std::vector<int>& known,
                   int attempts, const BudgetGuard& budget) {
  sat::Solver solver;
  cnf::SolverSink sink(solver);

  // Shared structure: one input vector, one "rest of the key" vector; the
  // two copies differ only in the target bit (fixed 0 in A, 1 in B).
  // Previously recovered bits are pinned — each peel pass shrinks the
  // interference the goldenness proof must quantify over.
  std::vector<sat::Var> shared_keys(net.num_keys());
  for (auto& v : shared_keys) v = solver.new_var();
  for (std::size_t i = 0; i < known.size(); ++i) {
    if (known[i] >= 0 && i != target) {
      solver.add_clause({sat::Lit(shared_keys[i], known[i] == 0)});
    }
  }
  std::vector<sat::Var> keys_a = shared_keys;
  std::vector<sat::Var> keys_b = shared_keys;
  keys_a[target] = solver.new_var();
  keys_b[target] = solver.new_var();
  solver.add_clause({sat::neg(keys_a[target])});  // A: bit = 0
  solver.add_clause({sat::pos(keys_b[target])});  // B: bit = 1

  cnf::EncodeOptions options_a;
  options_a.shared_key_vars = keys_a;
  const cnf::EncodedCircuit a = cnf::encode(net, sink, options_a);
  cnf::EncodeOptions options_b;
  options_b.shared_key_vars = keys_b;
  options_b.shared_input_vars = a.input_vars;  // one input vector, two copies
  const cnf::EncodedCircuit b = cnf::encode(net, sink, options_b);

  // Per-output difference literals (we need to know *which* output flips).
  std::vector<cnf::NetLit> diffs(net.num_outputs());
  std::vector<cnf::NetLit> diff_terms;
  for (std::size_t o = 0; o < net.num_outputs(); ++o) {
    diffs[o] = cnf::emit_xor(sink, a.outputs[o], b.outputs[o]);
    if (!diffs[o].is_const() || diffs[o].const_value()) {
      diff_terms.push_back(diffs[o]);
    }
  }
  const cnf::NetLit any_diff = cnf::emit_or(sink, diff_terms);
  if (any_diff.is_const() && !any_diff.const_value()) {
    return -1;  // key bit never observable
  }
  const sat::Var act = solver.new_var();
  if (!any_diff.is_const()) {
    solver.add_clause({sat::neg(act), any_diff.lit});
  }

  // Candidate patterns are phase-randomized per attempt. Left to its own
  // devices the solver clusters models around its phase-saving state, so a
  // blocked candidate is re-found with a couple of bits flipped and all
  // `attempts` tries probe the same non-golden neighbourhood. Random
  // polarities make the tries independent draws, which is what the
  // golden-pattern density argument behind this attack assumes.
  std::mt19937_64 rng(0x5e5117 ^ (static_cast<std::uint64_t>(target) << 20));
  for (int attempt = 0; attempt < attempts; ++attempt) {
    for (const sat::Var v : a.input_vars) {
      solver.set_phase(v, (rng() & 1) != 0);
    }
    budget.arm(solver);
    const sat::Lit find[] = {sat::pos(act)};
    if (solver.solve(find) != sat::LBool::kTrue) return -1;

    // Candidate pattern + observing output.
    std::vector<bool> pattern(a.input_vars.size());
    std::vector<sat::Lit> pin_x;
    for (std::size_t i = 0; i < a.input_vars.size(); ++i) {
      pattern[i] = solver.value_of(a.input_vars[i]);
      pin_x.push_back(sat::Lit(a.input_vars[i], !pattern[i]));
    }
    int obs = -1;
    bool v0 = false;
    for (std::size_t o = 0; o < diffs.size(); ++o) {
      const bool flipped = diffs[o].is_const()
                               ? diffs[o].const_value()
                               : (solver.value_of(diffs[o].lit.var()) !=
                                  diffs[o].lit.negated());
      if (flipped) {
        obs = static_cast<int>(o);
        v0 = a.outputs[o].is_const()
                 ? a.outputs[o].const_value()
                 : (solver.value_of(a.outputs[o].lit.var()) !=
                    a.outputs[o].lit.negated());
        break;
      }
    }
    if (obs < 0) return -1;  // should not happen

    // Goldenness: at this x, output `obs` must be v0 for *every* rest-key
    // under bit=0, and ~v0 under bit=1. Two UNSAT checks.
    const auto constant_under = [&](const cnf::EncodedCircuit& copy,
                                    bool expected) {
      std::vector<sat::Lit> assume = pin_x;
      const cnf::NetLit out = copy.outputs[obs];
      if (out.is_const()) return out.const_value() == expected;
      assume.push_back(expected ? ~out.lit : out.lit);  // seek a violation
      budget.arm(solver);
      return solver.solve(assume) == sat::LBool::kFalse;
    };
    if (constant_under(a, v0) && constant_under(b, !v0)) {
      const std::vector<bool> response = oracle.query(pattern);
      return response[obs] == v0 ? 0 : 1;
    }
    // Not golden: exclude this input pattern and retry.
    sat::Clause block;
    for (std::size_t i = 0; i < a.input_vars.size(); ++i) {
      block.push_back(sat::Lit(a.input_vars[i], pattern[i]));
    }
    solver.add_clause(std::move(block));
  }
  return -1;
}

}  // namespace

SensitizationResult sensitization_attack(const netlist::Netlist& locked,
                                         const Oracle& oracle,
                                         const SensitizationOptions& options) {
  // Reuse the engine's budget handling so timeout/interrupt map to the same
  // AttackStatus values as every DIP-loop attack.
  AttackOptions budget_options;
  budget_options.timeout_s = options.timeout_s;
  budget_options.interrupt = options.interrupt;
  const BudgetGuard budget(budget_options);
  const std::uint64_t queries_before = oracle.num_queries();
  SensitizationResult result;
  result.resolved.assign(locked.num_keys(), -1);
  // Peel until a fixpoint: every recovered bit may unlock further bits.
  bool progress = true;
  while (progress && result.status == AttackStatus::kSuccess) {
    progress = false;
    for (std::size_t i = 0; i < locked.num_keys(); ++i) {
      if (result.resolved[i] >= 0) continue;
      if (const auto cut = budget.exhausted()) {
        result.status = *cut;
        break;
      }
      result.resolved[i] =
          attack_one_key(locked, oracle, i, result.resolved,
                         options.attempts_per_key, budget);
      if (result.resolved[i] >= 0) {
        ++result.num_resolved;
        progress = true;
      }
    }
  }
  result.complete =
      result.num_resolved == static_cast<int>(locked.num_keys());
  result.oracle_queries = oracle.num_queries() - queries_before;
  result.seconds = budget.elapsed_s();
  return result;
}

}  // namespace fl::attacks

// CycSAT (Zhou et al., ICCAD'17): SAT attack on cyclic logic locking.
//
// Pre-processing derives, for every feedback edge of the locked netlist, a
// "no structural cycle" (NC) condition over the key inputs: a key is only
// admissible if every structural cycle through that edge is broken by some
// key-controlled MUX select on the path. The conditions are asserted for
// both key copies of the attack miter; the standard DIP loop then runs on
// the (constraint-wise acyclic) problem.
#pragma once

#include "attacks/sat_attack.h"

namespace fl::attacks {

// Derives and asserts the NC ("no structural cycle") key conditions for
// both key-variable sets, and returns the number of feedback edges they
// cover. No-op for acyclic netlists. Shared by CycSAT and AppSAT (the paper
// runs AppSAT on top of CycSAT for cyclic Full-Lock). When `budget` is
// given, an exhausted budget degrades the conditions instead of letting
// preprocessing overshoot the attack's deadline; that stays sound, because
// the DIP loop still bans stateful keys.
int add_nc_conditions(const netlist::Netlist& locked, sat::SolverIface& solver,
                      std::span<const sat::Var> key1,
                      std::span<const sat::Var> key2,
                      const BudgetGuard* budget = nullptr);

// Kept for keybench, which compiles against this signature until it calls
// attacks::run; forwards to cycsat_attack.
class CycSat {
 public:
  explicit CycSat(AttackOptions options = {}) : options_(options) {}

  AttackResult run(const core::LockedCircuit& locked,
                   const Oracle& oracle) const {
    return cycsat_attack(locked.netlist, oracle, options_).result;
  }

 private:
  AttackOptions options_;
};

}  // namespace fl::attacks

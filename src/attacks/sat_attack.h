// Oracle-guided SAT attack (Subramanyan et al., HOST'15).
//
// Iteratively finds Discriminating Input Patterns with a double-key miter,
// queries the oracle, and constrains the key space until no DIP remains;
// any remaining key is then functionally correct.
//
// The miter setup, DIP loop, budget handling, key confirmation and key
// extraction live in the shared engine (attacks/engine.h); this class
// supplies the single-DIP policy: one oracle query per DIP pattern, I/O
// constraints on both key copies, the candidate-key update that lets an
// acyclic attack end on a confirmed key, and BeSAT-style stateful-key
// banning on cyclic locks. Reports the statistics
// the paper's evaluation tables are built from: iteration count, wall time,
// per-iteration time, and the average clauses-to-variables ratio of the CNF
// the solver worked on (Fig. 7).
#pragma once

#include "attacks/engine.h"

namespace fl::attacks {

class SatAttack {
 public:
  explicit SatAttack(AttackOptions options = {}) : options_(options) {}

  AttackResult run(const core::LockedCircuit& locked,
                   const Oracle& oracle) const;

 protected:
  // Hook for CycSAT: add pre-conditions on the two key-variable sets before
  // the DIP loop starts. `budget` lets long preprocessing degrade instead
  // of blowing the attack's wall budget.
  virtual void add_preconditions(const netlist::Netlist& locked,
                                 sat::SolverIface& solver,
                                 std::span<const sat::Var> key1,
                                 std::span<const sat::Var> key2,
                                 const BudgetGuard& budget) const;

  // Engine label for trace records.
  virtual const char* name() const { return "sat"; }

 public:
  virtual ~SatAttack() = default;

 private:
  AttackOptions options_;
};

}  // namespace fl::attacks

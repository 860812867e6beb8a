// Oracle-guided SAT attack (Subramanyan et al., HOST'15), and CycSAT's
// variant of it for cyclic locks (attacks/cycsat.h).
//
// Iteratively finds Discriminating Input Patterns with a double-key miter,
// queries the oracle, and constrains the key space until no DIP remains;
// any remaining key is then functionally correct.
//
// The miter setup, DIP loop, budget handling, key confirmation and key
// extraction live in the shared engine (attacks/engine.h); this attack
// supplies the single-DIP policy: one oracle query per DIP pattern, I/O
// constraints on both key copies, the candidate-key update that lets an
// acyclic attack end on a confirmed key, and BeSAT-style stateful-key
// banning on cyclic locks. Reports the statistics
// the paper's evaluation tables are built from: iteration count, wall time,
// per-iteration time, and the average clauses-to-variables ratio of the CNF
// the solver worked on (Fig. 7).
#pragma once

#include "attacks/registry.h"
#include "core/locked_circuit.h"

namespace fl::attacks {

// The registry's "sat" and "cycsat" entries: the same loop, CycSAT's with
// its no-cycle key conditions asserted on both key copies first. Run them
// by name through attacks::run.
RunResult sat_attack(const netlist::Netlist& locked, const Oracle& oracle,
                     const AttackOptions& options);
RunResult cycsat_attack(const netlist::Netlist& locked, const Oracle& oracle,
                        const AttackOptions& options);

// Kept for keybench, which compiles against this signature until it calls
// attacks::run; forwards to sat_attack.
class SatAttack {
 public:
  explicit SatAttack(AttackOptions options = {}) : options_(options) {}

  AttackResult run(const core::LockedCircuit& locked,
                   const Oracle& oracle) const {
    return sat_attack(locked.netlist, oracle, options_).result;
  }

 private:
  AttackOptions options_;
};

}  // namespace fl::attacks

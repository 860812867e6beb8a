// Reference equivalence check for differential tests: the plain two-copy
// Tseytin miter. Both netlists are encoded in full over shared input
// variables, their keys pinned by unit clauses, and the output difference is
// solved to UNSAT. Slow but independent of netlist::optimize and of key
// specialisation, which cnf::check_equivalence relies on. Acyclic netlists
// only (a cyclic one would be encoded gate-per-variable, whose CNF admits
// states the circuit never settles in).
#pragma once

#include <vector>

#include "cnf/tseytin.h"
#include "netlist/netlist.h"
#include "sat/solver.h"

namespace fl::cnf {

inline bool reference_equivalent(const netlist::Netlist& a,
                                 const std::vector<bool>& key_a,
                                 const netlist::Netlist& b,
                                 const std::vector<bool>& key_b) {
  sat::Solver solver;
  SolverSink sink(solver);
  const EncodedCircuit enc_a = encode(a, sink);
  for (std::size_t i = 0; i < key_a.size(); ++i) {
    solver.add_clause({sat::Lit(enc_a.key_vars[i], !key_a[i])});
  }
  EncodeOptions options_b;
  options_b.shared_input_vars = enc_a.input_vars;
  const EncodedCircuit enc_b = encode(b, sink, options_b);
  for (std::size_t i = 0; i < key_b.size(); ++i) {
    solver.add_clause({sat::Lit(enc_b.key_vars[i], !key_b[i])});
  }
  const NetLit diff = encode_difference(enc_a.outputs, enc_b.outputs, sink);
  if (diff.is_const()) return !diff.const_value();
  solver.add_clause({diff.lit});
  return solver.solve() == sat::LBool::kFalse;
}

}  // namespace fl::cnf

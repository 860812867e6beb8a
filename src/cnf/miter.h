// Miter construction for oracle-guided attacks and equivalence checking.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "cnf/tseytin.h"
#include "netlist/netlist.h"
#include "netlist/structure.h"
#include "sat/solver.h"

namespace fl::cnf {

// The double-key attack miter of Subramanyan et al.: two copies of the
// locked circuit share the primary inputs but carry independent key vectors
// K1/K2; assuming `activate` forces at least one output to differ.
struct AttackMiter {
  std::vector<sat::Var> inputs;
  std::vector<sat::Var> key1;
  std::vector<sat::Var> key2;
  // Each copy's output ports. In the cone shape the copies share one NetLit
  // on every key-independent port (a const-0 placeholder outside the
  // support), so only ports whose two NetLits differ carry the keys' effect.
  std::vector<NetLit> outputs1;
  std::vector<NetLit> outputs2;
  sat::Lit activate;       // assume this to search for a DIP
  bool trivially_equal = false;  // outputs identical for all keys (no DIP)
};

// With `cone` non-null (acyclic locks), the first copy is restricted to the
// partition's miter support and the second copy re-encodes only the key
// cone against the first copy's nets — the key-independent outputs cancel
// structurally instead of clause-by-clause. With cone == nullptr both
// copies encode the full circuit (the legacy shape).
AttackMiter encode_attack_miter(const netlist::Netlist& locked,
                                sat::SolverIface& solver,
                                netlist::KeyConePartition* cone = nullptr);

// Adds the constraint "locked(pattern, K) == response" for every key copy
// K in `key_copies` (one circuit copy with inputs fixed; constants are
// folded when the netlist is acyclic). Every copy must have num_keys()
// variables.
//
// Both forms commit the constraint's projection onto the variables the
// solver already had: the copy and its output pins are buffered, unit
// propagation and bounded variable elimination (sat::Simplifier, the keys
// frozen) remove the copy's own Tseytin variables where that does not grow
// the clause count, and only the surviving fresh variables and clauses
// reach the solver. The copy's variables are never handed out, so the
// admitted keys are exactly those of the raw copy. The projection is made
// once, over local key variables, and then committed to each key copy in
// turn; the solver sees exactly the calls that one call per copy would make.
void add_io_constraint(const netlist::Netlist& locked,
                       sat::SolverIface& solver,
                       std::span<const std::vector<sat::Var>> key_copies,
                       const std::vector<bool>& pattern,
                       const std::vector<bool>& response);

// Cone-restricted form of add_io_constraint: `frontier_lits` (indexed by
// GateId, size num_gates) carries the fixed-region net values already
// evaluated under the DIP — at minimum at every KeyConePartition tap — so
// only the gates in `cone_topo` are re-encoded. The values must be
// constants; a literal the encode reads throws std::invalid_argument.
// Key-independent outputs are still checked against `response` (a mismatch
// empties the key space, matching the full encode).
void add_io_constraint_cone(const netlist::Netlist& locked,
                            sat::SolverIface& solver,
                            std::span<const std::vector<sat::Var>> key_copies,
                            std::span<const netlist::GateId> cone_topo,
                            std::span<const NetLit> frontier_lits,
                            const std::vector<bool>& response);

// Clauses-to-variables ratio of the deobfuscation CNF as a naive
// MiniSAT-frontend (the paper's tooling, Fig. 7) sees it: a double-key
// miter plus `num_dips` I/O-constraint circuit copies, all encoded without
// constant folding and with DIP inputs pinned by unit clauses. Random DIP
// patterns are drawn from `seed`; oracle responses are irrelevant to the
// ratio (unit clauses either way).
double deobfuscation_cnf_ratio(const netlist::Netlist& locked, int num_dips,
                               std::uint64_t seed);

// Equivalence proof of two netlists with equal PI/PO counts, each under a
// constant key (pass {} for a key-less netlist). Both are specialised to
// their keys (netlist::append_specialized) into one netlist over shared
// primary inputs and optimised (netlist::optimize); an output pair that
// lands on one node is equal, and only the cone of the pairs that do not
// merge is SAT-checked. Returns true iff functionally equivalent; on false
// `counterexample` (if non-null) receives an input pattern on which the
// two differ. Throws std::invalid_argument on interface or key-size
// mismatches, and when a structural cycle survives the specialisation (a
// cyclic lock under a key that does not cut its cycles).
bool check_equivalence(const netlist::Netlist& a, const std::vector<bool>& key_a,
                       const netlist::Netlist& b, const std::vector<bool>& key_b,
                       std::vector<bool>* counterexample = nullptr);

}  // namespace fl::cnf

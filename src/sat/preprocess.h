// SatELite-style CNF simplification: one clause store and one variable
// eliminator, shared by the base-miter preprocessor and the per-DIP
// constraint projection.
//
// Simplifier holds clauses over dense variables [0, num_vars()) with
// occurrence lists and runs SatELite's passes over them once: root-level
// unit propagation to fixpoint, (optionally) backward subsumption with
// self-subsuming resolution, and bounded variable elimination (BVE) of every
// variable not frozen. Its two users:
//  - PreprocessSolver (below) stages the base double-key miter, simplifies
//    it with every pass and commits the survivors to an inner solver on the
//    first solve(). The DIP loop keeps adding per-iteration constraints
//    incrementally afterwards.
//  - cnf::add_io_constraint[_cone] buffers each DIP constraint in a
//    Simplifier whose frozen variables stand for the key variables (the
//    only ones the solver already had), runs propagation and BVE once, and
//    hands the solver, for each key copy, only the surviving fresh
//    variables and clauses (cnf/miter.h).
//
// Invariants PreprocessSolver maintains:
//  - No variable renumbering: the inner solver allocates every staged
//    variable at flush time, so external ids and inner ids coincide.
//    Anything holding raw Var values across the boundary (key copies,
//    assumption literals) keeps working.
//  - Eliminated variables are pinned false in the inner solver with root
//    unit clauses (which the CDCL solver does not store or count as problem
//    clauses), so inner models assign them deterministically; the true
//    values are reconstructed from the recorded occurrence clauses in
//    reverse elimination order, exactly as SatELite extends models. The
//    extension runs on the first read of an eliminated variable (or of
//    model()), not on every solve: the DIP loop mostly reads frozen
//    variables, which the inner assignment already holds.
//  - Frozen variables (primary inputs, key copies, activation literals —
//    anything the caller will mention in later clauses or assumptions) are
//    never eliminated. Adding a post-flush clause or assumption over an
//    eliminated variable throws std::logic_error: it would silently change
//    the formula's meaning.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sat/solver_iface.h"
#include "sat/types.h"

namespace fl::sat {

struct PreprocessStats {
  bool ran = false;
  bool budget_exhausted = false;
  std::size_t input_vars = 0;
  std::size_t input_clauses = 0;
  std::size_t output_clauses = 0;
  std::size_t fixed_vars = 0;         // root units found by propagation
  std::size_t eliminated_vars = 0;    // removed by bounded variable elim
  std::size_t removed_clauses = 0;    // total deletions (UP + subsume + BVE)
  std::size_t subsumed_clauses = 0;
  std::size_t strengthened_literals = 0;  // self-subsuming resolution
  std::size_t resolvents_added = 0;
  double preprocess_s = 0.0;  // wall-clock, stripped from CI-stable JSON
};

class Simplifier {
 public:
  Var new_var();
  int num_vars() const { return next_var_; }

  // Marks `v` as untouchable by variable elimination. Throws
  // std::invalid_argument for an unknown variable and std::logic_error once
  // simplify() has run.
  void freeze(Var v);

  // Stores `clause` sorted and deduplicated; a tautology is dropped and an
  // empty clause is a contradiction. After simplify() the clause is also
  // reduced against the root assignment, and a unit is enqueued.
  void add_clause(Clause clause);

  // SatELite's passes, once: root unit propagation, then (with `subsume`)
  // backward subsumption and self-subsuming resolution, then bounded
  // variable elimination of every unfrozen, unassigned variable, in order of
  // increasing occurrence count (ties by variable id) — a pure function of
  // the stored clauses. Ends at a propagation fixpoint: no surviving clause
  // mentions a root-assigned variable. Idempotent.
  void simplify(bool subsume);
  bool simplified() const { return simplified_; }

  bool contradiction() const { return contradiction_; }
  // Root assignment found by propagation (kUndef before simplify()).
  LBool value(Var v) const;
  bool is_eliminated(Var v) const {
    return v >= 0 && static_cast<std::size_t>(v) < eliminated_.size() &&
           eliminated_[static_cast<std::size_t>(v)];
  }
  std::size_t num_clauses() const { return live_clauses_; }
  const PreprocessStats& stats() const { return stats_; }

  // Moves the surviving clauses of two or more literals out (units live in
  // the root assignment) and frees the clause store. The root assignment and
  // the elimination record stay for value(), is_eliminated() and
  // extend_model().
  std::vector<Clause> take_clauses();

  // Sets every eliminated variable in `model` (sized to num_vars() or more)
  // from the clauses it was eliminated from, in reverse elimination order:
  // false, unless one of its positive occurrence clauses is otherwise
  // unsatisfied.
  void extend_model(std::vector<bool>& model) const;

  std::size_t memory_bytes() const;

 private:
  struct StagedClause {
    Clause lits;  // sorted, deduplicated
    std::uint64_t sig = 0;
    bool deleted = false;
  };
  // One eliminated variable; its positive occurrence clauses sit in
  // elim_lits_ up to `end`, each terminated by kUndefLit.
  struct Elimination {
    Var v = kNullVar;
    std::size_t end = 0;
  };
  // A literal's occurrence list: clause indices in insertion order, lazy
  // (an entry may name a deleted clause or one that lost the literal). All
  // lists share occ_pool_, built by simplify() with each slot sized exactly
  // to the staged clauses; a list that outgrows its slot later (resolvents)
  // moves to the end of the pool with twice the room. One buffer instead of
  // a heap block per literal: the per-DIP projection builds a store for
  // every DIP copy, and thousands of small blocks per copy cost as much as
  // the simplification itself.
  struct OccSlot {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };

  bool budget_ok() const;
  std::span<const std::uint32_t> occ(Lit l) const;
  void occ_push(Lit l, std::uint32_t ci);
  void build_occurrences();
  void push_clause(Clause clause);
  void del_clause(std::size_t idx);
  void enqueue(Lit l);
  void propagate();
  void subsume_all();
  void backward_subsume(std::size_t ci);
  void strengthen(std::size_t di, Lit l);
  void touch(const Clause& clause);
  void eliminate_vars();
  void gather(Lit l, std::vector<std::uint32_t>& out);
  bool try_eliminate(Var v);

  PreprocessStats stats_;

  Var next_var_ = 0;
  bool simplified_ = false;
  bool contradiction_ = false;

  std::vector<StagedClause> db_;
  std::size_t live_clauses_ = 0;
  std::vector<OccSlot> occ_;  // per Lit::index()
  std::vector<std::uint32_t> occ_pool_;
  std::vector<LBool> assigns_;
  std::vector<Lit> trail_;
  std::size_t qhead_ = 0;
  std::vector<bool> frozen_;
  std::vector<bool> eliminated_;
  // Variables whose clauses changed since their last elimination attempt;
  // only they are retried (an unchanged variable would fail again).
  std::vector<bool> touched_;
  std::vector<Elimination> elim_stack_;
  std::vector<Lit> elim_lits_;
  std::vector<std::uint32_t> pos_occ_, neg_occ_;  // try_eliminate scratch
  std::uint64_t steps_ = 0;
};

class PreprocessSolver final : public SolverIface {
 public:
  // `inner` must be empty (no variables, no clauses) and outlive this
  // wrapper; throws std::invalid_argument otherwise.
  explicit PreprocessSolver(SolverIface& inner);

  // Marks `v` as untouchable by variable elimination. Must be called before
  // flush(); throws std::logic_error afterwards.
  void freeze(Var v) { simp_.freeze(v); }

  // Runs every simplification pass over the staged clauses and commits the
  // simplified formula to the inner solver (allocating all staged variables
  // there first). Idempotent; invoked automatically by the first solve(),
  // so clauses added between construction and the first solve — CycSAT's
  // cycle-breaking conditions, attack preconditions — get preprocessed
  // together with the miter.
  void flush();
  bool flushed() const { return flushed_; }

  bool is_eliminated(Var v) const { return simp_.is_eliminated(v); }
  const PreprocessStats& preprocess_stats() const { return simp_.stats(); }

  // SolverIface:
  Var new_var() override;
  int num_vars() const override;
  bool add_clause(Clause clause) override;
  LBool solve(std::span<const Lit> assumptions = {}) override;
  bool value_of(Var v) const override;
  std::vector<bool> model() const override;
  void set_phase(Var v, bool phase) override;
  void set_conflict_budget(std::uint64_t max_conflicts) override;
  void set_deadline(
      std::optional<std::chrono::steady_clock::time_point> t) override;
  void set_interrupt(const std::atomic<bool>* flag) override;
  bool last_solve_interrupted() const override;
  StopReason last_stop_reason() const override;
  const SolverStats& stats() const override;
  CounterSnapshot counters() const override;
  std::size_t num_clauses() const override;
  std::size_t num_learnts() const override;
  std::size_t memory_bytes() const override;

 private:
  // The model of the last SAT solve, extended over eliminated variables
  // only when one of them (or the whole model) is read:
  //   kNone      no SAT answer to read: reads go to the inner solver
  //   kLive      the inner assignment still is the model
  //   kSnapshot  model_values_ holds the inner model, not yet extended
  //   kExtended  model_values_ holds the extended model
  enum class Model : std::uint8_t { kNone, kLive, kSnapshot, kExtended };

  void check_no_eliminated(const Clause& clause) const;
  // Copies a live inner model before a call that moves the inner
  // assignment, so later reads still see the solve's model.
  void snapshot_model();
  void extend_model() const;

  SolverIface& inner_;
  Simplifier simp_;
  bool flushed_ = false;
  std::vector<std::pair<Var, bool>> pending_phases_;

  mutable Model model_ = Model::kNone;
  std::size_t model_vars_ = 0;  // inner variables when the model was found
  mutable std::vector<bool> model_values_;
};

}  // namespace fl::sat

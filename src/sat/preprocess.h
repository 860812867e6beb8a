// SatELite-style CNF preprocessing behind the SolverIface boundary.
//
// PreprocessSolver stages clauses in its own database, simplifies them once
// (root-level unit propagation to fixpoint, backward subsumption,
// self-subsuming resolution, bounded variable elimination), and commits the
// survivors to an inner solver on the first solve(). The attack engine wraps
// the base double-key miter in one of these so the CNF the CDCL search
// actually carries is the simplified one, while the DIP loop keeps adding
// per-iteration constraints incrementally afterwards.
//
// Invariants the wrapper maintains:
//  - No variable renumbering: the inner solver allocates every staged
//    variable at flush time, so external ids and inner ids coincide.
//    Anything holding raw Var values across the boundary (parallel-solver
//    split candidates, assumption literals) keeps working.
//  - Eliminated variables are pinned false in the inner solver with root
//    unit clauses (which the CDCL solver does not store or count as problem
//    clauses), so inner models assign them deterministically; the true
//    values are reconstructed from the recorded occurrence clauses in
//    reverse elimination order, exactly as SatELite extends models.
//  - Frozen variables (primary inputs, key copies, activation literals —
//    anything the caller will mention in later clauses or assumptions) are
//    never eliminated. Adding a post-flush clause or assumption over an
//    eliminated variable throws std::logic_error: it would silently change
//    the formula's meaning.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sat/solver_iface.h"
#include "sat/types.h"

namespace fl::sat {

struct PreprocessConfig {
  // Variable elimination accepts a variable iff the number of non-tautological
  // resolvents is at most (#positive + #negative occurrences) + grow.
  int grow = 0;
  // Reject an elimination outright if any resolvent would exceed this length.
  std::size_t max_resolvent_len = 24;
  // Skip subsumption/elimination work on literals or variables whose
  // occurrence lists are larger than this (quadratic-blowup guard).
  std::size_t max_occurrences = 400;
  // Global work budget in literal-visit steps; preprocessing stops cleanly
  // (but soundly) when exhausted.
  std::uint64_t step_budget = 40'000'000;
};

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

class PreprocessSolver final : public SolverIface {
 public:
  // `inner` must be empty (no variables, no clauses) and outlive this
  // wrapper; throws std::invalid_argument otherwise.
  explicit PreprocessSolver(SolverIface& inner, PreprocessConfig config = {});

  // Marks `v` as untouchable by variable elimination. Must be called before
  // preprocess()/flush(); throws std::logic_error afterwards.
  void freeze(Var v);

  // Runs the simplification passes over the staged clauses. Idempotent;
  // invoked automatically by flush().
  void preprocess();

  // Commits the simplified formula to the inner solver (allocating all
  // staged variables there first). Idempotent; invoked automatically by the
  // first solve(), so clauses added between construction and the first
  // solve — CycSAT's cycle-breaking conditions, attack preconditions — get
  // preprocessed together with the miter.
  void flush();
  bool flushed() const { return flushed_; }

  bool is_eliminated(Var v) const {
    return v >= 0 && static_cast<std::size_t>(v) < eliminated_.size() &&
           eliminated_[v];
  }
  const PreprocessStats& preprocess_stats() const { return stats_; }
  SolverIface& inner() { return inner_; }

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
  struct StagedClause {
    Clause lits;  // sorted, deduplicated
    std::uint64_t sig = 0;
    bool deleted = false;
  };
  struct Elimination {
    Var v = kNullVar;
    // Clauses that contained `v` positively at elimination time; enough to
    // extend a model (v defaults to false; flips to true iff one of these
    // is otherwise unsatisfied).
    std::vector<Clause> pos_clauses;
  };

  enum class Norm { kOk, kTautology, kEmpty };
  static Norm normalize(Clause& clause);
  static std::uint64_t signature(const Clause& clause);

  bool budget_ok() const { return steps_ < config_.step_budget; }
  void check_no_eliminated(const Clause& clause) const;
  void push_clause(Clause clause);
  void del_clause(std::size_t idx);
  void enqueue(Lit l);
  void propagate();
  void subsume_all();
  void backward_subsume(std::size_t ci);
  void strengthen(std::size_t di, Lit l);
  void eliminate_vars();
  bool try_eliminate(Var v);
  bool resolve(const Clause& pos, const Clause& neg, Var pivot,
               Clause& out) const;
  void extend_model();
  void release_staging();

  SolverIface& inner_;
  PreprocessConfig config_;
  PreprocessStats stats_;

  Var next_var_ = 0;
  bool preprocessed_ = false;
  bool flushed_ = false;
  bool contradiction_ = false;

  std::vector<StagedClause> db_;
  std::size_t live_clauses_ = 0;
  std::vector<std::vector<std::uint32_t>> occ_;  // per Lit::index(), lazy
  std::vector<LBool> assigns_;
  std::vector<Lit> trail_;
  std::size_t qhead_ = 0;
  std::vector<bool> frozen_;
  std::vector<bool> eliminated_;
  std::vector<Elimination> elim_stack_;
  std::vector<std::pair<Var, bool>> pending_phases_;
  mutable std::uint64_t steps_ = 0;

  bool model_valid_ = false;
  std::vector<bool> model_;
};

}  // namespace fl::sat

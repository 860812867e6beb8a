// Abstract solver interface shared by the CDCL solver (sat::Solver) and the
// preprocessing wrapper in front of it (sat::PreprocessSolver).
//
// The oracle-guided attack engine programs against this interface so the
// same DIP loop runs with or without base-miter preprocessing: incremental
// clause addition, solving under assumptions, model readback, budgets, and
// the statistics the paper's evaluation reads out.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "sat/types.h"

namespace fl::sat {

// Why the most recent solve() returned kUndef — or kNone when it ran to a
// decisive kTrue/kFalse. Lets callers (and the sweep JSONL schema) tell a
// wall-clock timeout apart from cooperative cancellation, a conflict
// budget, and the solver's own memory budget tripping.
enum class StopReason : std::uint8_t {
  kNone = 0,        // solve completed (kTrue / kFalse)
  kConflictBudget,  // set_conflict_budget() exhausted
  kDeadline,        // set_deadline() passed
  kInterrupt,       // an interrupt flag was observed
  kOutOfMemory,     // SolverConfig::memory_limit_mb exceeded
};
const char* to_string(StopReason reason);

struct SolverStats {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  // Implications enqueued through the binary implication lists (a subset of
  // the work `propagations` counts trail literals for).
  std::uint64_t binary_propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  std::uint64_t learned_literals = 0;
  // Learnt clauses of size 2 (these live in the binary implication lists
  // and are never eligible for reduction).
  std::uint64_t learned_binary = 0;
  // LBD histogram summary over learnt clauses, measured at 1UIP time. A
  // clause's LBD counts the distinct decision levels among its literals
  // above the solve's assumption levels (each assumption has its own
  // level, which is not counted), and is at least 1.
  // Sum of the LBDs (mean = lbd_sum / learned_clauses; >= learned_clauses).
  std::uint64_t lbd_sum = 0;
  // Clauses learnt as glue (LBD <= 2): these join the kept-forever tier.
  std::uint64_t glue_learned = 0;
  // Largest LBD learnt.
  std::uint64_t max_lbd = 0;
  // Local-tier clauses whose LBD improved to glue level during a later
  // conflict analysis and were moved into the kept-forever core tier.
  std::uint64_t promoted_clauses = 0;
  // Clauses dropped by reduce_db (local tier only).
  std::uint64_t removed_clauses = 0;
  // Learnt-database size right after the most recent reduce_db.
  std::uint64_t db_size_after_reduce = 0;
  // Size of the kept-forever core tier (glue clauses, binaries and
  // promotions) when the most recent solve() ended.
  std::uint64_t core_learnts = 0;
  // Root-level simplification between incremental solves: satisfied
  // problem/learnt clauses dropped, falsified literals stripped.
  std::uint64_t simplify_removed_clauses = 0;
  std::uint64_t simplify_removed_literals = 0;
  // High-water mark of memory_bytes(), sampled at the end of every solve().
  std::uint64_t peak_memory_bytes = 0;
};

// Cheap monotonic snapshot of the hot search counters, for callers that
// measure deltas around a single solve() (the attack engine's
// per-iteration trace) without copying the full SolverStats.
struct CounterSnapshot {
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
};

class SolverIface {
 public:
  virtual ~SolverIface() = default;

  virtual Var new_var() = 0;
  virtual int num_vars() const = 0;

  // Returns false if the clause makes the formula trivially UNSAT (empty
  // clause after root-level simplification). The solver stays usable but
  // will report UNSAT from then on.
  virtual bool add_clause(Clause clause) = 0;
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(Clause(lits));
  }

  // Solves under the given assumptions. kUndef means a budget/deadline was
  // hit. The model (for kTrue) is read with value_of/model().
  virtual LBool solve(std::span<const Lit> assumptions = {}) = 0;

  // Model access; only valid after solve() returned kTrue.
  virtual bool value_of(Var v) const = 0;
  virtual std::vector<bool> model() const = 0;

  // Phase hint: the polarity the next decision on `v` tries first.
  virtual void set_phase(Var v, bool phase) = 0;

  // Budgets: 0 / nullopt disables.
  virtual void set_conflict_budget(std::uint64_t max_conflicts) = 0;
  virtual void set_deadline(
      std::optional<std::chrono::steady_clock::time_point> t) = 0;

  // Cooperative cancellation from other threads (the caller's cancel
  // token): the flag is polled at the same boundaries as the deadline and
  // never written by the solver. nullptr disables.
  virtual void set_interrupt(const std::atomic<bool>* flag) = 0;

  // True iff the most recent solve() returned kUndef because a conflict
  // budget, deadline, interrupt or memory budget cut the search short.
  virtual bool last_solve_interrupted() const = 0;

  // Which budget cut the most recent solve() short (kNone when it ran to a
  // decisive answer). Cleared at the start of every solve().
  virtual StopReason last_stop_reason() const = 0;

  virtual const SolverStats& stats() const = 0;
  virtual CounterSnapshot counters() const = 0;

  // Problem (non-learnt) clause count — the numerator of the paper's
  // clause/variable hardness ratio.
  virtual std::size_t num_clauses() const = 0;
  virtual std::size_t num_learnts() const = 0;

  // Bytes currently held by the solver's own data structures.
  virtual std::size_t memory_bytes() const = 0;
};

}  // namespace fl::sat

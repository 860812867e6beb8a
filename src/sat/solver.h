// Conflict-driven clause-learning (CDCL) SAT solver.
//
// MiniSat-style architecture — two-watched-literal propagation, first-UIP
// conflict analysis with clause minimization, VSIDS branching with phase
// saving, Luby restarts — with Glucose-style learnt-clause management and an
// arena clause store:
//  * every learnt clause gets an LBD (literal block distance) at 1UIP time,
//    counting only the decision levels above the current solve's
//    assumptions (Audemard, Lagniez & Simon, SAT 2013): each assumption
//    sits on its own level, and a clause learnt under a fixed candidate key
//    should not rank by how many key bits it mentions;
//  * the learnt database is two-tiered: low-LBD "core" clauses (glue, and
//    all binaries) are kept forever, high-LBD "local" clauses are reduced
//    by LBD-then-activity;
//  * clauses whose LBD improves when they re-appear in conflict analysis
//    are promoted into the core tier;
//  * binary clauses propagate through dedicated implication lists (literal
//    pairs, no clause-memory chasing on the hot path); each literal's
//    binary and long watch lists live in one node so propagation touches
//    one cache line to find both;
//  * clause literals are stored inline after a compact header in a single
//    uint32 arena, addressed by 32-bit refs — half-size watch lists and one
//    less pointer hop per clause visit than heap-allocated clause objects;
//    every clause's literals start two words after its ref (a learnt
//    clause's activity sits in front of the header), so propagation never
//    tests the learnt bit to find them;
//  * truth values are stored per literal, so a watcher visit reads one byte
//    with no sign flip;
//  * the long-watch walk runs on raw pointers into the list it filters (a
//    moved watch always lands in another literal's list).
//
// Built for the oracle-guided SAT attack, so it supports
//  * incremental clause addition between solve() calls, with a root-level
//    simplify() pass that drops satisfied clauses and falsified literals
//    accumulated by the attack's DIP constraints,
//  * solving under assumptions (the miter activation literal, and the
//    candidate key that the loop-ending key-confirmation solve fixes),
//  * wall-clock deadlines and conflict budgets (solve returns kUndef),
//  * the search statistics the paper reasons about (decisions ~ DPLL
//    branching, propagations, conflicts ~ backtracks).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sat/solver_iface.h"
#include "sat/types.h"

namespace fl::sat {

// The search schedule is fixed at the classic MiniSat values (kVarDecay,
// kClauseDecay, kRestartUnit in solver.cpp); the one per-solver setting is
// its memory budget.
struct SolverConfig {
  // Memory budget over the solver's own allocations (clause arena, learnt
  // DB, watch lists, trail and per-variable state; see memory_bytes()).
  // When the accounted total crosses the budget, solve() returns kUndef
  // with StopReason::kOutOfMemory instead of letting the process grow
  // until the kernel OOM-kills it. 0 = unlimited.
  std::size_t memory_limit_mb = 0;
};

class Solver final : public SolverIface {
 public:
  explicit Solver(SolverConfig config = {});
  ~Solver() override;
  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  Var new_var() override;
  int num_vars() const override { return static_cast<int>(level_.size()); }

  // Returns false if the clause makes the formula trivially UNSAT (empty
  // clause after root-level simplification). The solver stays usable but
  // will report UNSAT from then on.
  bool add_clause(Clause clause) override;
  using SolverIface::add_clause;

  // Solves under the given assumptions. kUndef means a budget/deadline was
  // hit. The model (for kTrue) is read with value_of/model().
  LBool solve(std::span<const Lit> assumptions = {}) override;

  // Root-level database simplification: removes clauses satisfied by
  // root-level assignments and strips falsified literals. Runs
  // automatically at the start of every solve() once new root facts have
  // accumulated (the attack's DIP constraints add them continuously), so
  // explicit calls are only needed to reclaim memory eagerly.
  void simplify();

  // Model access; only valid after solve() returned kTrue.
  bool value_of(Var v) const override;
  std::vector<bool> model() const override;

  // Phase hint: the polarity the next decision on `v` tries first.
  // Overwritten again whenever `v` is assigned (phase saving). Callers use
  // this to diversify the models of successive SAT calls — decisions
  // otherwise cluster around the all-false default, so "enumerate another
  // witness" loops re-find near-copies of the previous model.
  void set_phase(Var v, bool phase) override {
    saved_phase_[v] = phase ? 1 : 0;
  }

  // Budgets: 0 disables. The deadline is checked after every conflict and
  // every few decisions, so a solve overshoots it by at most a handful of
  // fast decisions.
  void set_conflict_budget(std::uint64_t max_conflicts) override {
    conflict_budget_ = max_conflicts;
  }
  void set_deadline(
      std::optional<std::chrono::steady_clock::time_point> t) override {
    deadline_ = t;
  }

  // Cooperative cancellation from other threads: the flag is polled at the
  // same boundaries as the deadline and never written by the solver.
  // nullptr disables.
  void set_interrupt(const std::atomic<bool>* flag) override {
    interrupt_ = flag;
  }

  // True iff the most recent solve() returned kUndef because a conflict
  // budget, deadline, interrupt or memory budget cut the search short.
  // Cleared at the start of every solve().
  bool last_solve_interrupted() const override { return budget_hit_; }

  // Which budget cut the most recent solve() short (kNone when it ran to a
  // decisive answer). Cleared at the start of every solve().
  StopReason last_stop_reason() const override { return stop_reason_; }

  // Bytes currently held by the solver's own data structures: the clause
  // arena, clause databases, watch lists, trail and per-variable state.
  // What SolverConfig::memory_limit_mb is enforced against.
  std::size_t memory_bytes() const override;

  const SolverStats& stats() const override { return stats_; }

  CounterSnapshot counters() const override {
    return {stats_.decisions, stats_.propagations, stats_.conflicts};
  }
  std::size_t num_clauses() const override { return num_problem_clauses_; }
  std::size_t num_learnts() const override { return learnt_clauses_.size(); }

 private:
  // Word offset of a clause in arena_. kNullRef doubles as "no reason"
  // (arena_[0] is a sentinel so no real clause lives at 0).
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNullRef = 0;
  struct Cls;  // arena clause accessor (solver.cpp)

  struct Watcher {
    ClauseRef ref;
    Lit blocker;
  };
  // Binary implication: when the node's key literal becomes true, `other`
  // is implied (or conflicting). `ref` is only touched off the hot path,
  // as the implication's reason.
  struct BinWatch {
    Lit other;
    ClauseRef ref;
  };
  // Both watch lists of one literal, side by side: binary implications and
  // long-clause watchers are nearly always consulted together, so keeping
  // the two vector headers in one node makes the second list (almost) free
  // to find once the first has been loaded.
  struct WatchNode {
    std::vector<BinWatch> bins;
    std::vector<Watcher> longs;
  };

  Cls cls(ClauseRef r);
  ClauseRef alloc_clause(std::span<const Lit> lits, bool learnt);
  void free_clause(ClauseRef r);  // accounting only; space reclaimed by GC
  void maybe_garbage_collect();
  void relocate(ClauseRef& r, std::vector<std::uint32_t>& to);

  bool enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  void analyze(ClauseRef conflict, Clause& learnt, int& backtrack_level);
  bool lit_redundant(Lit l, std::uint32_t abstract_levels);
  void backtrack_to(int level);
  Lit pick_branch_lit();
  void bump_var(Var v);
  void decay_var_activity();
  void bump_clause(Cls c);
  std::uint32_t compute_lbd(std::span<const Lit> lits);
  void record_learnt(const Clause& learnt, std::uint32_t lbd);
  void reduce_db();
  void attach(ClauseRef r);
  void detach(ClauseRef r);
  void filter_condemned_watchers(bool bins_too);
  std::int8_t value(Lit l) const { return vals_[l.index()]; }
  LBool search();
  bool budget_exhausted(bool force_deadline_check = false) const;

  // Assignment state. vals_ holds the truth value of every literal, indexed
  // by Lit::index(): kLitTrue, kLitFalse or kLitUndef. Both literals of a
  // variable are written together, so reading a literal's value is one
  // byte load with no sign flip on the propagation hot path.
  static constexpr std::int8_t kLitTrue = 1;
  static constexpr std::int8_t kLitFalse = -1;
  static constexpr std::int8_t kLitUndef = 0;
  std::vector<std::int8_t> vals_;
  std::vector<std::uint8_t> saved_phase_;
  std::vector<int> level_;
  std::vector<ClauseRef> reason_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t propagate_head_ = 0;

  // Clause storage: headers + literals inline in one uint32 arena. Freed
  // clauses only mark waste; maybe_garbage_collect() compacts when waste
  // crosses a threshold.
  std::vector<std::uint32_t> arena_;
  std::size_t wasted_words_ = 0;
  std::vector<ClauseRef> problem_clauses_;
  std::vector<ClauseRef> learnt_clauses_;
  std::size_t num_problem_clauses_ = 0;
  std::size_t num_local_learnts_ = 0;  // reducible (non-core) learnt clauses
  std::vector<WatchNode> watches_;  // indexed by Lit::index()

  // VSIDS.
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<Var> heap_;  // binary max-heap of vars by activity
  std::vector<int> heap_pos_;
  void heap_insert(Var v);
  Var heap_pop();
  void heap_up(int i);
  void heap_down(int i);
  bool heap_less(Var a, Var b) const { return activity_[a] < activity_[b]; }

  double cla_inc_ = 1.0;

  // Conflict-analysis scratch.
  std::vector<std::uint8_t> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_toclear_;
  // LBD scratch: per-level stamps so computing an LBD is O(|clause|) with
  // no clearing pass.
  std::vector<std::uint64_t> level_stamp_;
  std::uint64_t lbd_stamp_ = 0;

  // Learnt-DB size that triggers reduce_db, counting both tiers. Grows
  // geometrically with every reduction so a large core tier (which
  // reduce_db never shrinks) raises the ceiling instead of re-triggering
  // reductions that have nothing left to remove.
  std::size_t max_learnts_ = 0;

  bool ok_ = true;
  std::vector<Lit> assumptions_;
  SolverConfig config_;
  SolverStats stats_;
  std::uint64_t conflict_budget_ = 0;
  std::uint64_t conflicts_at_solve_ = 0;
  std::size_t simplified_trail_ = 0;  // root trail size at last simplify()
  std::uint64_t conflicts_at_simplify_ = 0;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  const std::atomic<bool>* interrupt_ = nullptr;  // caller's cancel token
  mutable std::uint64_t deadline_check_countdown_ = 0;
  mutable bool budget_hit_ = false;
  mutable StopReason stop_reason_ = StopReason::kNone;
  // Memory accounting walks every watch list, so it runs on a coarser
  // stride than the deadline check and the value is cached in between.
  mutable std::uint32_t memory_check_countdown_ = 0;
  mutable std::size_t last_memory_bytes_ = 0;
};

// One-shot convenience used by tests and the k-SAT experiments.
LBool solve_cnf(const Cnf& cnf, std::vector<bool>* model = nullptr,
                SolverStats* stats = nullptr);

}  // namespace fl::sat

// In-process parallel SAT: clause-sharing portfolio and cube-and-conquer.
//
// ParallelSolver runs K CDCL workers over *one* formula: every new_var /
// add_clause call is mirrored to all workers, so each worker owns an
// identical clause stream and anything a worker learns is a logical
// consequence of the shared formula. That makes clause exchange sound by
// construction — unlike sharing across independent attacks, whose DIP
// constraints (and hence learnt clauses) diverge after one iteration.
//
// Two cooperative modes:
//  * kShare — every worker searches the whole problem under diversified
//    configurations (decay/restart jitter, phase jitter) and exchanges
//    core-tier learnt clauses (glue LBD <= 2, binaries, learnt units)
//    through a bounded, deduplicated, sharded-mutex ClausePool. Exports
//    happen at learn time; imports at restart boundaries under a per-call
//    budget. The first decisive worker stops the rest.
//  * kCubes — the search space is split into 2^d assumption cubes over the
//    most active CLN swap-key variables (VSIDS activity once a worker has
//    history, occurrence counts before that); workers drain the cube queue,
//    still sharing clauses (clauses learnt under assumptions are
//    consequences of the formula alone). SAT on any cube wins and cancels
//    the rest; the instance is UNSAT iff every cube is UNSAT.
//
// A width-1 ParallelSolver degenerates to a plain Solver call on the
// caller's thread — no pool, no jitter, bit-identical behavior.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sat/solver.h"

namespace fl::runtime {
class ThreadPool;
}

namespace fl::sat {

// How a portfolio width is spent; both modes run one DIP loop over a
// cooperating ParallelSolver.
enum class ParMode : std::uint8_t { kShare = 0, kCubes };
const char* to_string(ParMode mode);
std::optional<ParMode> parse_par_mode(std::string_view name);

// Diversified solver configuration for worker `k`: k = 0 is `base`
// unchanged, 1..5 walk a hand-picked table of restart/decay profiles, and
// every k >= 6 gets deterministic splitmix64 jitter on the decay rates and
// restart unit — so no two workers ever duplicate each other's schedule,
// no matter the width (the old table silently wrapped modulo 6).
SolverConfig diversified_config(int k, SolverConfig base = {});

// The assumption cubes over `vars`: all 2^n sign combinations, partitioning
// the search space (bit j of the cube index gives vars[j] its polarity).
// Exposed for the partition tests; callers cap n (the splitter uses <= 10).
std::vector<std::vector<Lit>> build_cubes(std::span<const Var> vars);

// Bounded, deduplicated exchange for learnt clauses. One shard (mutex +
// flat clause buffer) per producer keeps publishers from contending with
// each other; consumers walk the other producers' shards behind private
// cursors, so a clause is handed to each consumer at most once and is never
// re-imported by its own producer. A global hash set drops duplicate
// clauses across producers; a per-shard capacity bounds memory when one
// worker learns much faster than the others consume.
class ClausePool {
 public:
  ClausePool(int num_workers, std::size_t shard_capacity);

  // Publishes a clause learnt by `producer`. Returns false when the clause
  // was dropped (already seen, or the producer's shard is full).
  bool publish(int producer, std::span<const Lit> lits, std::uint32_t lbd);

  // Hands up to `budget` not-yet-seen clauses from other producers' shards
  // to `fn`, advancing `consumer`'s cursors. Returns the number delivered.
  // Must be called by at most one thread per consumer index at a time (the
  // parallel solver guarantees this: a worker imports only on its own
  // thread).
  std::size_t consume(
      int consumer, std::size_t budget,
      const std::function<void(std::span<const Lit>, std::uint32_t)>& fn);

  struct Stats {
    std::uint64_t published = 0;  // clauses accepted into a shard
    std::uint64_t duplicates = 0; // dropped by the cross-producer hash set
    std::uint64_t overflow = 0;   // dropped because the shard was full
    std::uint64_t consumed = 0;   // clause deliveries (once per consumer)
  };
  Stats stats() const;

  // Every distinct clause currently buffered, with its LBD — the
  // logical-consequence differential tests check each of these against the
  // original formula.
  std::vector<std::pair<Clause, std::uint32_t>> snapshot() const;

 private:
  struct Entry {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
    std::uint32_t lbd = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::vector<Entry> entries;
    std::vector<Lit> lits;
  };

  std::vector<std::unique_ptr<Shard>> shards_;  // one per producer
  std::vector<std::vector<std::size_t>> cursors_;  // [consumer][shard]
  std::size_t shard_capacity_;
  mutable std::mutex dedup_mu_;
  std::unordered_set<std::uint64_t> seen_;
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> consumed_{0};
};

struct ParallelConfig {
  int num_workers = 1;
  ParMode mode = ParMode::kShare;
  SolverConfig base;  // worker 0's configuration
  // Deterministic decay/restart jitter (diversified_config) plus saved-phase
  // jitter for workers > 0. Off = identical twins (only useful in tests).
  bool diversify = true;
  // Max clauses a worker imports per restart boundary. Bounds the level-0
  // attach work a restart pays before searching again.
  std::size_t import_budget = 256;
  // Max clauses buffered per producer shard (publishes overflow past it).
  std::size_t shard_capacity = std::size_t{1} << 14;
  // Cube split depth d (2^d cubes); 0 derives it from num_workers.
  int cube_depth = 0;
  // Adaptive fan-out: every solve() first runs worker 0 inline under this
  // conflict budget and only fans out (share or cubes) when the budget
  // trips. Oracle-guided attacks issue a long stream of easy DIP solves
  // before one hard UNSAT proof; the probe keeps the easy stream free of
  // parallel overhead and escalates exactly the hard tail — with worker 0's
  // VSIDS activity freshly focused on it, which is what the cube splitter
  // ranks by. 0 = fan out every solve.
  std::uint64_t inline_budget = 2000;
};

// Observability over one ParallelSolver (per-worker search counters are in
// stats(), aggregated across workers).
struct ParallelStats {
  std::uint64_t parallel_solves = 0;  // solve() calls that fanned out
  // Solve() calls answered on the caller's thread: the width-1 fast path
  // plus probes that finished inside ParallelConfig::inline_budget.
  std::uint64_t inline_solves = 0;
  // Probes whose conflict budget tripped, escalating the solve to a fan-out.
  std::uint64_t probe_escalations = 0;
  std::uint64_t cubes_dispatched = 0;
  std::uint64_t cubes_unsat = 0;
  int last_winner = -1;        // worker index of the last decisive solve
  std::size_t last_num_cubes = 0;
};

class ParallelSolver final : public SolverIface {
 public:
  explicit ParallelSolver(ParallelConfig config = {});
  ~ParallelSolver() override;
  ParallelSolver(const ParallelSolver&) = delete;
  ParallelSolver& operator=(const ParallelSolver&) = delete;

  Var new_var() override;
  int num_vars() const override;
  bool add_clause(Clause clause) override;
  using SolverIface::add_clause;
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

  // Cube-and-conquer split candidates (the attack passes the CLN swap-key
  // variables of every miter copy). Without candidates, kCubes solves fall
  // back to plain sharing.
  void set_split_candidates(std::vector<Var> candidates);

  int num_workers() const { return static_cast<int>(workers_.size()); }
  const ParallelStats& parallel_stats() const { return pstats_; }
  // nullptr at width 1 (no exchange exists on the fast path).
  const ClausePool* pool() const { return pool_.get(); }

 private:
  LBool solve_inline(std::span<const Lit> assumptions);
  void worker_run_share(int i, const std::vector<Lit>& assumptions);
  void worker_run_cubes(int i, const std::vector<Lit>& assumptions);
  void record_decisive(int i, LBool result);
  std::vector<Var> pick_split_vars() const;
  bool external_interrupted() const;

  ParallelConfig config_;
  std::vector<std::unique_ptr<Solver>> workers_;
  std::unique_ptr<ClausePool> pool_;
  std::unique_ptr<runtime::ThreadPool> threads_;
  std::vector<Var> split_candidates_;
  std::vector<std::uint32_t> occurrences_;  // per-var, bumped in add_clause

  // Budgets forwarded to workers at every solve().
  std::uint64_t conflict_budget_ = 0;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  const std::atomic<bool>* interrupt_ = nullptr;

  // Per-solve race state. `winner_` is CAS-claimed by the first decisive
  // worker, which then writes `decisive_result_` and raises `stop_` — the
  // thread pool's wait provides the happens-before edge back to the
  // coordinating thread.
  std::atomic<bool> stop_{false};
  std::atomic<int> winner_{-1};
  LBool decisive_result_ = LBool::kUndef;
  std::atomic<std::size_t> cube_next_{0};
  std::atomic<std::size_t> cubes_unsat_{0};
  std::vector<std::vector<Lit>> cubes_;

  int model_source_ = 0;  // worker whose model value_of()/model() read
  StopReason last_stop_ = StopReason::kNone;
  mutable SolverStats agg_stats_;  // rebuilt on stats()
  ParallelStats pstats_;
};

}  // namespace fl::sat

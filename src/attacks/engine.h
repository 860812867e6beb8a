// Shared oracle-guided attack engine.
//
// Every oracle-guided attack in this repo (SAT attack, CycSAT, AppSAT,
// Double-DIP) is the same loop: encode a key-differential miter, repeatedly
// solve for a discriminating input pattern (DIP), query the activated-chip
// oracle, constrain the key space, and finally end on a key that no
// remaining DIP can tell apart from the oracle — either a candidate key the
// last solve proved (key confirmation) or one extracted from the surviving
// key space.
// What differs between the attacks is *policy* — which miter is encoded,
// what happens per DIP, and how the endgame runs — not the loop itself.
// This layer owns the loop:
//
//   MiterContext   owns the incremental solver and the encoded miter
//                  (inputs, key copies, activation literal), the per-solve
//                  clauses/variables ratio sampling (Fig. 7's metric), DIP
//                  constraint encoding, the candidate key under
//                  confirmation and key extraction.
//   BudgetGuard    every attack budget in one place: wall-clock timeout,
//                  cooperative interrupt, solver memory budget — and the
//                  single mapping from an exhausted budget to AttackStatus,
//                  so kTimeout / kInterrupted / kOutOfMemory mean the same
//                  thing for every attack.
//   DipLoop        the driver: enforces the budgets, counts and times
//                  iterations uniformly (mean_iteration_seconds,
//                  mean_clause_var_ratio), confirms a candidate key when
//                  the solve under it finds no DIP, and calls back into a
//                  DipPolicy at the three points where attacks differ.
//   DipPolicy      per-attack behavior: on_dip (oracle query + key-space
//                  pruning, and the candidate update for policies that
//                  confirm keys), after_iteration (AppSAT's settlement
//                  checks), on_no_dip (key extraction / mop-up when no
//                  candidate was confirmed).
//
// Key confirmation (Sweeney, Heule & Pileggi, "Modeling Techniques for
// Logic Locking"): a candidate key agrees with every DIP so far. While one
// is set, the DIP solve fixes it on key copy 0, so a SAT answer is still an
// ordinary DIP and an UNSAT answer proves the candidate correct — once a
// guard solve shows the candidate satisfies every DIP constraint on its own.
//
// Observability: an optional IterationTraceSink receives one record per
// counted DIP iteration (index, the DIP, the miter-solve wall time, the
// solver's decision/propagation/conflict deltas, and the running c/v ratio)
// — the per-iteration data the paper's Eq. 2 hardness argument is about.
// JsonlTraceSink emits them as JSONL in the runtime::jsonl conventions
// (wired through `attack --trace FILE` and the sweep drivers' --trace).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "attacks/oracle.h"
#include "cnf/tseytin.h"
#include "netlist/simulator.h"
#include "netlist/structure.h"
#include "runtime/jsonl.h"
#include "sat/preprocess.h"
#include "sat/solver.h"

namespace fl::attacks {

enum class AttackStatus : std::uint8_t {
  kSuccess,         // UNSAT miter: the key (confirmed candidate or
                    // extracted survivor) is provably correct
  kApproximate,     // AppSAT settled: the key's sampled error is under its
                    // threshold, and nothing proved it correct
  kTimeout,         // wall-clock budget exhausted (the paper's "TO")
  kIterationLimit,  // max_iterations reached
  kKeySpaceEmpty,   // constraints became UNSAT (should not happen with a
                    // well-formed locked circuit)
  kInterrupted,     // cooperative cancellation (AttackOptions::interrupt);
                    // the run was cut short externally, not by its budget —
                    // sweep runtimes must not record it as a finished cell
  kOutOfMemory,     // the solver's memory budget tripped
                    // (AttackOptions::memory_limit_mb)
};

const char* to_string(AttackStatus status);

// One completed DIP iteration, as handed to an IterationTraceSink. The
// solver counters are deltas over the DIP-miter solve alone (policy work —
// oracle queries, constraint encoding, AppSAT settlement solves — is
// excluded, exactly like mean_iteration_seconds excludes the one-off miter
// encoding).
struct IterationTrace {
  std::string attack;        // engine label: "sat", "cycsat", "appsat", ...
  long long cell = -1;       // sweep grid cell, -1 outside sweeps
  std::uint64_t iteration = 0;  // 0-based counted-iteration index
  std::string dip;           // the DIP as a '0'/'1' string, PI order
  double cv_ratio = 0.0;     // clauses/vars ratio the DIP solve started from
  std::uint64_t decisions = 0;     // solver deltas over the DIP solve
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  double solve_s = 0.0;      // wall time of the DIP-miter solve
  // Problem-clause / variable growth across the whole iteration (the DIP
  // solve plus the policy's constraint encoding). Signed: the solver's
  // root-level simplification may shrink the database between solves.
  long long clauses_added = 0;
  long long vars_added = 0;
  // Wall time the policy spent encoding constraints this iteration
  // (MiterContext::constrain_io / constrain_io_batch, including the
  // fixed-region constant sweep in cone mode).
  double encode_s = 0.0;
};

class IterationTraceSink {
 public:
  virtual ~IterationTraceSink() = default;
  virtual void record(const IterationTrace& trace) = 0;
};

// The one serialization of an IterationTrace (schema in EXPERIMENTS.md):
// each --trace line JsonlTraceSink writes, and the body of each "trace"
// event a serve job streams.
runtime::JsonObject to_json(const IterationTrace& trace);

// Emits one JSONL object per iteration (schema in EXPERIMENTS.md) onto a
// caller-owned stream. Thread-safe: one sink may serve every cell of a
// parallel sweep (records carry their cell index), serialized by an
// internal mutex.
class JsonlTraceSink final : public IterationTraceSink {
 public:
  explicit JsonlTraceSink(std::ostream& out) : out_(out) {}
  void record(const IterationTrace& trace) override;

 private:
  std::ostream& out_;
  std::mutex mu_;
};

// A command's --trace FILE: the opened file and the JsonlTraceSink writing
// it, shared by every attack the command runs. sink() is nullptr when
// `path` is empty; an unwritable path throws std::runtime_error.
class TraceFile {
 public:
  explicit TraceFile(const std::string& path);
  IterationTraceSink* sink() { return sink_ ? &*sink_ : nullptr; }

 private:
  std::optional<std::ofstream> file_;
  std::optional<JsonlTraceSink> sink_;
};

struct AttackOptions {
  double timeout_s = 0.0;            // 0 = unlimited
  std::uint64_t max_iterations = 0;  // 0 = unlimited
  // Absolute wall deadline imposed by an enclosing job budget (the serve
  // daemon's per-job watchdog): BudgetGuard stops the attack with kTimeout
  // when it passes, whichever of it and timeout_s comes first. Unlike
  // timeout_s — which starts from Clock::now() at every attack — this is a
  // fixed point in time, so the cells of a sweep job share the job's one
  // budget instead of each starting its own.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  // Cooperative cancellation (e.g. fl::runtime::CancelToken::flag()).
  // Polled inside every solve; a cancelled attack reports kInterrupted. The
  // attack never writes the flag. nullptr disables.
  const std::atomic<bool>* interrupt = nullptr;
  // Solver memory budget (sat::SolverConfig::memory_limit_mb): a solve
  // whose accounted memory crosses it returns with kOutOfMemory instead of
  // growing until the process is OOM-killed. 0 = unlimited.
  std::size_t memory_limit_mb = 0;
  // Optional per-iteration observability (see IterationTrace). Not owned;
  // must outlive the attack.
  IterationTraceSink* trace = nullptr;
  // Grid cell index stamped into trace records by sweep drivers (-1 = not
  // part of a sweep).
  long long trace_cell = -1;
};

struct AttackResult {
  AttackStatus status = AttackStatus::kTimeout;
  // Always sized to the key width: the recovered key for kSuccess, the
  // settled key for kApproximate, the solver's best-effort assignment
  // otherwise — downstream consumers (AppSAT warm starts, JSONL writers)
  // may index it unconditionally.
  std::vector<bool> key;
  std::uint64_t iterations = 0;
  double seconds = 0.0;
  // Mean wall time of one DIP-loop iteration (DIP solve + oracle query +
  // constraint encoding). Excludes the one-off miter encoding, the loop's
  // last (UNSAT) solve and the guard or key-extraction solve after it, so it
  // matches the paper's per-iteration metric.
  double mean_iteration_seconds = 0.0;
  // Mean clauses/variables ratio over the CNF snapshots the DIP solver
  // actually worked on (one sample per DIP-miter solve).
  double mean_clause_var_ratio = 0.0;
  sat::SolverStats solver_stats;
  // Why the decisive solve stopped short (kNone when the attack ran to a
  // conclusive status). Distinguishes deadline / interrupt / conflict
  // budget / out-of-memory behind the kUndef the solver reported.
  sat::StopReason stop_reason = sat::StopReason::kNone;
  std::uint64_t oracle_queries = 0;
  // True iff the loop ended on key confirmation: the last DIP solve, with
  // the candidate fixed on one key copy, was UNSAT, and the guard passed.
  // False when the key was extracted from the surviving key space.
  bool key_confirmed = false;
  // Stateful key assignments banned after repeated DIPs (cyclic locks
  // only; BeSAT-style progress guarantee).
  std::uint64_t banned_keys = 0;
  // Encoding-pipeline observability (filled by DipLoop::run). base_clauses /
  // base_vars snapshot the solver right after the miter (and any policy
  // preconditions) were committed — i.e. after preprocessing — and the
  // *_added totals are the growth across the whole DIP loop (signed: root
  // simplification can shrink the database).
  std::size_t base_clauses = 0;
  std::size_t base_vars = 0;
  long long clauses_added = 0;
  long long vars_added = 0;
  // Total wall time spent encoding DIP constraints (cone sweep included).
  double encode_seconds = 0.0;
  bool cone_encoding = false;
  sat::PreprocessStats preprocess;
};

// All attack budgets, checked in one place, so every attack maps budget
// exhaustion to the same AttackStatus values. Constructed once at attack
// start; the deadline is derived from timeout_s relative to `start`.
class BudgetGuard {
 public:
  using Clock = std::chrono::steady_clock;

  explicit BudgetGuard(const AttackOptions& options,
                       Clock::time_point start = Clock::now());

  Clock::time_point start() const { return start_; }
  const std::optional<Clock::time_point>& deadline() const {
    return deadline_;
  }
  bool limited() const { return deadline_.has_value(); }
  double elapsed_s() const;
  // Seconds left until the deadline (never negative); meaningless unless
  // limited(). Used by Double-DIP to hand its remaining budget to the
  // mop-up SAT attack.
  double remaining_s() const;

  // Arms `solver` with the deadline and the caller's interrupt flag; call
  // before every solve so kUndef can be mapped back with undef_status().
  void arm(sat::SolverIface& solver) const;

  // Non-solver poll point (preprocessing loops, sensitization's per-key
  // sweep): the status a budget-exhausted attack must report, or nullopt
  // while budgets remain.
  std::optional<AttackStatus> exhausted() const;

  // Maps a solve() that returned kUndef back to an attack status via the
  // solver's stop reason. An external cancellation and a tripped memory
  // budget are not the paper's "TO".
  AttackStatus undef_status(const sat::SolverIface& solver) const;

 private:
  Clock::time_point start_;
  std::optional<Clock::time_point> deadline_;
  const std::atomic<bool>* interrupt_ = nullptr;
};

// Owns the incremental solver and the encoded attack miter. The miter shape
// is supplied by an Encoder so the standard double-key construction and
// Double-DIP's four-copy 2-DIP construction drive the same loop.
class MiterContext {
 public:
  // What an encoder must produce: the shared primary-input variables, the
  // key-variable copies that receive per-DIP I/O constraints (copies[0] is
  // the copy the final key is extracted from, and the one a candidate key
  // is fixed on), and the activation literal assumed when searching for a
  // DIP. `outputs` holds copies 0 and 1's output ports when the encoder
  // exposes them (double_key() does); update_candidate() needs them.
  // `trivially_equal` short-circuits the whole attack (the output does not
  // depend on the key).
  struct Parts {
    std::vector<sat::Var> inputs;
    std::vector<std::vector<sat::Var>> key_copies;
    std::vector<std::vector<cnf::NetLit>> outputs;
    sat::Lit activate = sat::kUndefLit;
    bool trivially_equal = false;
  };
  // The partition pointer is non-null iff the lock gets the cone encoding
  // (acyclic with keys); encoders that cannot exploit it may ignore it.
  using Encoder = std::function<Parts(
      const netlist::Netlist&, sat::SolverIface&, netlist::KeyConePartition*)>;

  // The standard double-key miter of Subramanyan et al. (two copies sharing
  // the primary inputs, independent keys K1/K2, some output differs).
  static Encoder double_key();

  // The encoding follows the lock: key-cone encoding when it is acyclic and
  // has keys, full-circuit encoding otherwise (CycSAT's cyclic locks). The
  // miter is staged through a sat::PreprocessSolver in front of one
  // sequential sat::Solver carrying the attack's memory budget. `locked`
  // must outlive the context.
  MiterContext(const netlist::Netlist& locked, const Encoder& encoder,
               const AttackOptions& options);
  MiterContext(const MiterContext&) = delete;
  MiterContext& operator=(const MiterContext&) = delete;

  const netlist::Netlist& locked() const { return *locked_; }
  sat::SolverIface& solver() { return pre_; }
  const sat::SolverIface& solver() const { return pre_; }
  const std::vector<sat::Var>& inputs() const { return parts_.inputs; }
  std::size_t num_key_copies() const { return parts_.key_copies.size(); }
  std::span<const sat::Var> key_copy(std::size_t i) const {
    return parts_.key_copies[i];
  }
  bool trivially_equal() const { return parts_.trivially_equal; }

  // One clauses/variables sample per DIP-miter solve: exactly the CNF
  // snapshots the solver worked on, each counted once (the guard or
  // key-extraction solve after the last one reuses its snapshot, so it adds
  // no sample).
  void sample_ratio();
  double last_ratio() const { return last_ratio_; }
  double mean_ratio() const;

  // Model readback (valid after a kTrue solve; best-effort otherwise).
  std::vector<bool> extract_pattern() const;
  std::vector<bool> extract_key() const { return extract_key(key_copy(0)); }
  std::vector<bool> extract_key(std::span<const sat::Var> key_vars) const;

  // "locked(pattern, K) == response" for every key copy — the per-DIP
  // key-space pruning constraint. In cone mode the key-free region is
  // evaluated by simulation and only the key cone is re-encoded; patterns
  // handed to constrain_io_batch share one bit-parallel sweep (64+ patterns
  // per simulator pass — AppSAT's reinforcement batches go through here).
  void constrain_io(const std::vector<bool>& pattern,
                    const std::vector<bool>& response);
  void constrain_io_batch(std::span<const std::vector<bool>> patterns,
                          std::span<const std::vector<bool>> responses);

  // Commits the staged base encoding: flushes the preprocessor and
  // snapshots base_clauses()/base_vars(). Called by DipLoop::run before the
  // first solve, after policies had their chance to add preconditions (so
  // CycSAT's cycle-breaking clauses get preprocessed with the miter);
  // idempotent.
  void finalize_encoding();
  std::size_t base_clauses() const { return base_clauses_; }
  std::size_t base_vars() const { return base_vars_; }
  bool cone_encoding() const { return cone_ != nullptr; }
  // Cumulative wall time spent in constrain_io/constrain_io_batch (cone
  // sweep + Tseytin encode; the full-circuit encode is timed too).
  double encode_seconds() const { return encode_seconds_; }
  const sat::PreprocessStats& preprocess_stats() const {
    return pre_.preprocess_stats();
  }

  // Bans the exact assignment `key` of `key_vars` (BeSAT-style stateful-key
  // elimination on cyclic locks).
  void ban_key(std::span<const sat::Var> key_vars,
               const std::vector<bool>& key);

  // Key confirmation. The literals a DIP solve assumes: `activate`, plus
  // the candidate on key copy 0 while one is set.
  std::span<const sat::Lit> dip_assumptions() const { return assumptions_; }
  const std::optional<std::vector<bool>>& candidate() const {
    return candidate_;
  }
  // Sets (or with nullopt clears) the candidate. Any key of the key width
  // may be set (std::invalid_argument otherwise): the loop accepts one only
  // through check_candidate().
  void set_candidate(std::optional<std::vector<bool>> key);
  // After a SAT DIP solve whose DIP the oracle answered with `response`:
  // the candidate becomes copy 0's key if copy 0's outputs reproduce the
  // response, else copy 1's key if copy 1's do, else none. Both keys
  // satisfy every earlier DIP constraint, so a matching one agrees with
  // every DIP. Reads the model (the preprocessor's extended model, so no
  // output needs freezing) on the ports where the copies differ; call it
  // before the DIP's constraint is added. Throws std::logic_error when the
  // encoder exposed no outputs.
  void update_candidate(const std::vector<bool>& response);
  // The soundness guard: one solve with the candidate fixed on every key
  // copy and `activate` left free, armed by `budget`. kTrue iff the
  // candidate satisfies every constraint committed so far; only then does
  // an UNSAT DIP solve under it prove the candidate. Throws
  // std::logic_error without a candidate.
  sat::LBool check_candidate(const BudgetGuard& budget);

 private:
  void freeze_interface();

  const netlist::Netlist* locked_;
  // The CDCL engine, and the PreprocessSolver staging wrapper in front of
  // it that the attack talks to (declared after engine_ so it is destroyed
  // first).
  sat::Solver engine_;
  sat::PreprocessSolver pre_;
  std::unique_ptr<netlist::KeyConePartition> cone_;  // null = full encoding
  std::unique_ptr<netlist::Simulator> fixed_sim_;    // over fixed_region()
  netlist::Simulator::Scratch fixed_scratch_;
  std::vector<cnf::NetLit> frontier_;  // per-DIP tap constants, GateId-indexed
  Parts parts_;
  // Output ports where copies 0 and 1 hold different NetLits: the only
  // ports update_candidate() compares.
  std::vector<std::size_t> key_dependent_ports_;
  std::optional<std::vector<bool>> candidate_;
  std::vector<sat::Lit> assumptions_;  // dip_assumptions()
  bool finalized_ = false;
  std::size_t base_clauses_ = 0;
  std::size_t base_vars_ = 0;
  double encode_seconds_ = 0.0;
  double ratio_sum_ = 0.0;
  double last_ratio_ = 0.0;
  std::uint64_t ratio_samples_ = 0;
};

// What a DipPolicy callback tells the loop to do next.
enum class LoopAction : std::uint8_t {
  kContinue,  // count this iteration and keep looping
  kRetry,     // keep looping without counting an iteration (key bans)
  kDone,      // result.status (and key, if recovered) are set — stop
};

// The per-attack behavior plugged into DipLoop. Policies are constructed
// per run and may hold attack state (DIP history, RNGs, oracles).
class DipPolicy {
 public:
  virtual ~DipPolicy() = default;

  // A DIP-miter solve returned SAT and `pattern` is its DIP. Query the
  // oracle and prune the key space. Runs inside the timed iteration window.
  virtual LoopAction on_dip(MiterContext& ctx, const BudgetGuard& budget,
                            const std::vector<bool>& pattern,
                            AttackResult& result) = 0;

  // Runs after each counted iteration, outside the timed window (AppSAT's
  // settlement checks live here). Default: keep looping.
  virtual LoopAction after_iteration(MiterContext& ctx,
                                     const BudgetGuard& budget,
                                     AttackResult& result);

  // The miter is UNSAT with no candidate key fixed: no DIP remains. (An
  // UNSAT solve under a candidate ends the loop on key confirmation and
  // never reaches this hook.) The default extracts a model of the surviving
  // key space (kKeySpaceEmpty when none) and reports success; attacks
  // override to validate extracted keys (SAT attack on cyclic locks) or mop
  // up with a stronger loop (Double-DIP).
  virtual LoopAction on_no_dip(MiterContext& ctx, const BudgetGuard& budget,
                               AttackResult& result);
};

// The shared DIP loop driver. Enforces every budget (max_iterations plus
// everything BudgetGuard owns), samples the c/v ratio once per DIP solve,
// times iterations uniformly, emits trace records, and keeps the final key
// sized to the key width on every exit path. When a DIP solve under a
// candidate key is UNSAT, it runs the guard: on SAT the candidate is the
// key (kSuccess, key_confirmed); on UNSAT, which means a bug, it clears the
// candidate and goes on with the free miter.
class DipLoop {
 public:
  // `name` labels trace records ("sat", "appsat", ...).
  DipLoop(const Oracle& oracle, const AttackOptions& options,
          const BudgetGuard& budget, std::string name);

  AttackResult run(MiterContext& ctx, DipPolicy& policy);

 private:
  const Oracle& oracle_;
  const AttackOptions& options_;
  const BudgetGuard& budget_;
  std::string name_;
};

}  // namespace fl::attacks

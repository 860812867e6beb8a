#include "sat/parallel.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "runtime/thread_pool.h"

namespace fl::sat {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Order-independent clause identity for the pool's duplicate filter: hash
// over the sorted literal indices (learnt clauses are duplicate-free, so
// sorting is enough for a canonical form).
std::uint64_t clause_hash(std::span<const Lit> lits) {
  std::vector<std::int32_t> idx;
  idx.reserve(lits.size());
  for (const Lit l : lits) idx.push_back(l.index());
  std::sort(idx.begin(), idx.end());
  std::uint64_t h = 0xCBF29CE484222325ull;  // FNV-1a over the index words
  for (const std::int32_t i : idx) {
    h ^= static_cast<std::uint32_t>(i);
    h *= 0x100000001B3ull;
  }
  return h;
}

// Auto cube depth: enough cubes that every worker keeps a backlog (load
// balancing against heavy-tailed cube runtimes), capped so the number of
// incremental solves stays bounded.
int auto_cube_depth(int num_workers) {
  int depth = 2;
  while ((1 << depth) < 4 * num_workers && depth < 8) ++depth;
  return depth;
}

}  // namespace

const char* to_string(ParMode mode) {
  switch (mode) {
    case ParMode::kShare: return "share";
    case ParMode::kCubes: return "cubes";
  }
  return "?";
}

std::optional<ParMode> parse_par_mode(std::string_view name) {
  if (name == "share") return ParMode::kShare;
  if (name == "cubes") return ParMode::kCubes;
  return std::nullopt;
}

SolverConfig diversified_config(int k, SolverConfig base) {
  if (k <= 0) return base;
  // Diversity along the two axes CDCL portfolios classically race: VSIDS
  // agility (decay) and restart cadence.
  static constexpr struct {
    double var_decay;
    double clause_decay;
    int restart_unit;
  } kTable[] = {
      {0.80, 0.999, 32},    // agile: fast decay, rapid restarts
      {0.99, 0.995, 512},   // sluggish: long-horizon activity, rare restarts
      {0.90, 0.9995, 64},   // moderately agile
      {0.95, 0.999, 1024},  // default decay, near-monolithic runs
      {0.85, 0.99, 256},
  };
  constexpr int kTableSize = static_cast<int>(std::size(kTable));
  if (k <= kTableSize) {
    const auto& c = kTable[k - 1];
    base.var_decay = c.var_decay;
    base.clause_decay = c.clause_decay;
    base.restart_unit = c.restart_unit;
    return base;
  }
  // Beyond the table: deterministic jitter, so arbitrarily wide portfolios
  // never run two identical schedules (the old table wrapped modulo its
  // size, making --portfolio 8 duplicate configs 0 and 1).
  const std::uint64_t h = splitmix64(static_cast<std::uint64_t>(k));
  base.var_decay =
      0.80 + 0.19 * (static_cast<double>(h & 0xFFFFu) / 65535.0);
  static constexpr double kClauseDecays[] = {0.99, 0.995, 0.999, 0.9995};
  base.clause_decay = kClauseDecays[(h >> 16) & 3u];
  base.restart_unit = 32 << ((h >> 18) % 6);  // 32 .. 1024
  return base;
}

std::vector<std::vector<Lit>> build_cubes(std::span<const Var> vars) {
  assert(vars.size() <= 20);
  const std::size_t n = vars.size();
  std::vector<std::vector<Lit>> cubes(std::size_t{1} << n);
  for (std::size_t mask = 0; mask < cubes.size(); ++mask) {
    cubes[mask].reserve(n);
    for (std::size_t j = 0; j < n; ++j) {
      cubes[mask].push_back(Lit(vars[j], ((mask >> j) & 1u) == 0));
    }
  }
  return cubes;
}

// ---------------------------------------------------------------- pool ----

ClausePool::ClausePool(int num_workers, std::size_t shard_capacity)
    : shard_capacity_(shard_capacity) {
  const std::size_t n = static_cast<std::size_t>(std::max(1, num_workers));
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  cursors_.assign(n, std::vector<std::size_t>(n, 0));
}

bool ClausePool::publish(int producer, std::span<const Lit> lits,
                         std::uint32_t lbd) {
  const std::uint64_t h = clause_hash(lits);
  {
    const std::lock_guard<std::mutex> lock(dedup_mu_);
    if (!seen_.insert(h).second) {
      duplicates_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  Shard& shard = *shards_[static_cast<std::size_t>(producer)];
  const std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.entries.size() >= shard_capacity_) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  Entry e;
  e.offset = static_cast<std::uint32_t>(shard.lits.size());
  e.size = static_cast<std::uint32_t>(lits.size());
  e.lbd = lbd;
  shard.lits.insert(shard.lits.end(), lits.begin(), lits.end());
  shard.entries.push_back(e);
  published_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::size_t ClausePool::consume(
    int consumer, std::size_t budget,
    const std::function<void(std::span<const Lit>, std::uint32_t)>& fn) {
  std::size_t delivered = 0;
  std::vector<Lit> lits;      // copied out so fn runs without the shard lock
  std::vector<Entry> batch;
  std::vector<std::size_t>& cursors =
      cursors_[static_cast<std::size_t>(consumer)];
  const std::size_t n = shards_.size();
  for (std::size_t step = 1; step < n && delivered < budget; ++step) {
    // Start one past the consumer and wrap: skips its own shard and avoids
    // every consumer draining shard 0 first.
    const std::size_t s = (static_cast<std::size_t>(consumer) + step) % n;
    Shard& shard = *shards_[s];
    batch.clear();
    lits.clear();
    {
      const std::lock_guard<std::mutex> lock(shard.mu);
      std::size_t& cur = cursors[s];
      while (cur < shard.entries.size() && delivered + batch.size() < budget) {
        const Entry& e = shard.entries[cur++];
        Entry copy = e;
        copy.offset = static_cast<std::uint32_t>(lits.size());
        lits.insert(lits.end(), shard.lits.begin() + e.offset,
                    shard.lits.begin() + e.offset + e.size);
        batch.push_back(copy);
      }
    }
    for (const Entry& e : batch) {
      fn(std::span<const Lit>(lits.data() + e.offset, e.size), e.lbd);
    }
    delivered += batch.size();
  }
  consumed_.fetch_add(delivered, std::memory_order_relaxed);
  return delivered;
}

ClausePool::Stats ClausePool::stats() const {
  Stats s;
  s.published = published_.load(std::memory_order_relaxed);
  s.duplicates = duplicates_.load(std::memory_order_relaxed);
  s.overflow = overflow_.load(std::memory_order_relaxed);
  s.consumed = consumed_.load(std::memory_order_relaxed);
  return s;
}

std::vector<std::pair<Clause, std::uint32_t>> ClausePool::snapshot() const {
  std::vector<std::pair<Clause, std::uint32_t>> out;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    for (const Entry& e : shard->entries) {
      out.emplace_back(Clause(shard->lits.begin() + e.offset,
                              shard->lits.begin() + e.offset + e.size),
                       e.lbd);
    }
  }
  return out;
}

// -------------------------------------------------------------- solver ----

ParallelSolver::ParallelSolver(ParallelConfig config)
    : config_(std::move(config)) {
  config_.num_workers = std::max(1, config_.num_workers);
  workers_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (int i = 0; i < config_.num_workers; ++i) {
    const SolverConfig wc = config_.diversify
                                ? diversified_config(i, config_.base)
                                : config_.base;
    workers_.push_back(std::make_unique<Solver>(wc));
  }
  if (config_.num_workers > 1) {
    pool_ = std::make_unique<ClausePool>(config_.num_workers,
                                         config_.shard_capacity);
    threads_ = std::make_unique<runtime::ThreadPool>(config_.num_workers);
    for (int i = 0; i < config_.num_workers; ++i) {
      Solver& w = *workers_[static_cast<std::size_t>(i)];
      w.set_export_hook([this, i](std::span<const Lit> lits,
                                  std::uint32_t lbd) {
        pool_->publish(i, lits, lbd);
      });
      w.set_import_hook([this, i](Solver& s) {
        pool_->consume(i, config_.import_budget,
                       [&s](std::span<const Lit> lits, std::uint32_t lbd) {
                         s.import_clause(lits, lbd);
                       });
      });
    }
  }
}

ParallelSolver::~ParallelSolver() = default;

Var ParallelSolver::new_var() {
  const Var v = workers_[0]->new_var();
  for (std::size_t i = 1; i < workers_.size(); ++i) {
    const Var vi = workers_[i]->new_var();
    assert(vi == v);
    (void)vi;
    if (config_.diversify) {
      // Phase jitter: workers start their first descent into different
      // corners of the assignment space (decisions otherwise cluster on the
      // all-false default and the workers shadow each other).
      const std::uint64_t h =
          splitmix64((static_cast<std::uint64_t>(i) << 32) ^
                     static_cast<std::uint64_t>(v));
      workers_[i]->set_phase(v, (h & 1u) != 0);
    }
  }
  occurrences_.push_back(0);
  return v;
}

int ParallelSolver::num_vars() const { return workers_[0]->num_vars(); }

bool ParallelSolver::add_clause(Clause clause) {
  for (const Lit l : clause) {
    occurrences_[static_cast<std::size_t>(l.var())] += 1;
  }
  // Workers may disagree on the return value (each filters against its own
  // root-level facts), but the formulas stay equivalent; report false if
  // any worker proved UNSAT.
  bool ok = true;
  for (std::size_t i = 1; i < workers_.size(); ++i) {
    ok = workers_[i]->add_clause(clause) && ok;
  }
  ok = workers_[0]->add_clause(std::move(clause)) && ok;
  return ok;
}

bool ParallelSolver::value_of(Var v) const {
  return workers_[static_cast<std::size_t>(model_source_)]->value_of(v);
}

std::vector<bool> ParallelSolver::model() const {
  return workers_[static_cast<std::size_t>(model_source_)]->model();
}

void ParallelSolver::set_phase(Var v, bool phase) {
  for (auto& w : workers_) w->set_phase(v, phase);
}

void ParallelSolver::set_conflict_budget(std::uint64_t max_conflicts) {
  conflict_budget_ = max_conflicts;
}

void ParallelSolver::set_deadline(
    std::optional<std::chrono::steady_clock::time_point> t) {
  deadline_ = t;
}

void ParallelSolver::set_interrupt(const std::atomic<bool>* flag) {
  interrupt_ = flag;
}

bool ParallelSolver::last_solve_interrupted() const {
  return last_stop_ != StopReason::kNone;
}

StopReason ParallelSolver::last_stop_reason() const { return last_stop_; }

const SolverStats& ParallelSolver::stats() const {
  agg_stats_ = SolverStats{};
  for (const auto& w : workers_) aggregate_stats(agg_stats_, w->stats());
  return agg_stats_;
}

CounterSnapshot ParallelSolver::counters() const {
  CounterSnapshot total;
  for (const auto& w : workers_) {
    const CounterSnapshot c = w->counters();
    total.decisions += c.decisions;
    total.propagations += c.propagations;
    total.conflicts += c.conflicts;
  }
  return total;
}

std::size_t ParallelSolver::num_clauses() const {
  return workers_[0]->num_clauses();
}

std::size_t ParallelSolver::num_learnts() const {
  return workers_[static_cast<std::size_t>(model_source_)]->num_learnts();
}

std::size_t ParallelSolver::memory_bytes() const {
  std::size_t total = 0;
  for (const auto& w : workers_) total += w->memory_bytes();
  return total;
}

void ParallelSolver::set_split_candidates(std::vector<Var> candidates) {
  split_candidates_ = std::move(candidates);
}

bool ParallelSolver::external_interrupted() const {
  return interrupt_ != nullptr && interrupt_->load(std::memory_order_relaxed);
}

std::vector<Var> ParallelSolver::pick_split_vars() const {
  const Solver& scorer = *workers_[0];
  // VSIDS activity once worker 0 has search history (later DIP iterations);
  // static occurrence counts before the first conflict.
  const bool use_activity = scorer.stats().conflicts > 0;
  std::vector<Var> vars;
  vars.reserve(split_candidates_.size());
  for (const Var v : split_candidates_) {
    if (v >= 0 && v < scorer.num_vars()) vars.push_back(v);
  }
  std::stable_sort(vars.begin(), vars.end(), [&](Var a, Var b) {
    const double sa = use_activity
                          ? scorer.activity_of(a)
                          : occurrences_[static_cast<std::size_t>(a)];
    const double sb = use_activity
                          ? scorer.activity_of(b)
                          : occurrences_[static_cast<std::size_t>(b)];
    if (sa != sb) return sa > sb;
    return a < b;
  });
  int depth = config_.cube_depth > 0 ? config_.cube_depth
                                     : auto_cube_depth(num_workers());
  depth = std::min<int>(depth, 10);
  if (static_cast<std::size_t>(depth) < vars.size()) {
    vars.resize(static_cast<std::size_t>(depth));
  }
  return vars;
}

void ParallelSolver::record_decisive(int i, LBool result) {
  int expected = -1;
  if (winner_.compare_exchange_strong(expected, i,
                                      std::memory_order_acq_rel)) {
    decisive_result_ = result;
    stop_.store(true, std::memory_order_release);
  }
}

void ParallelSolver::worker_run_share(int i,
                                      const std::vector<Lit>& assumptions) {
  Solver& w = *workers_[static_cast<std::size_t>(i)];
  const LBool r = w.solve(assumptions);
  if (r != LBool::kUndef) record_decisive(i, r);
}

void ParallelSolver::worker_run_cubes(int i,
                                      const std::vector<Lit>& assumptions) {
  Solver& w = *workers_[static_cast<std::size_t>(i)];
  std::vector<Lit> asmps = assumptions;
  const std::size_t base_size = asmps.size();
  while (!stop_.load(std::memory_order_acquire)) {
    const std::size_t c = cube_next_.fetch_add(1, std::memory_order_relaxed);
    if (c >= cubes_.size()) return;
    asmps.resize(base_size);
    asmps.insert(asmps.end(), cubes_[c].begin(), cubes_[c].end());
    const LBool r = w.solve(asmps);
    if (r == LBool::kTrue) {
      record_decisive(i, LBool::kTrue);
      return;
    }
    if (r == LBool::kFalse) {
      cubes_unsat_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    return;  // kUndef: deadline / interrupt / budget — give up this worker
  }
}

LBool ParallelSolver::solve_inline(std::span<const Lit> assumptions) {
  Solver& w = *workers_[0];
  w.set_conflict_budget(conflict_budget_);
  w.set_deadline(deadline_);
  w.set_interrupt_chain(interrupt_, nullptr);
  const LBool r = w.solve(assumptions);
  model_source_ = 0;
  last_stop_ = w.last_stop_reason();
  pstats_.inline_solves += 1;
  pstats_.last_winner = r == LBool::kUndef ? -1 : 0;
  return r;
}

LBool ParallelSolver::solve(std::span<const Lit> assumptions) {
  last_stop_ = StopReason::kNone;
  if (workers_.size() == 1) return solve_inline(assumptions);

  if (config_.inline_budget > 0) {
    // Adaptive fan-out: probe inline first, escalate only the hard solves.
    // If the caller's own conflict budget is at least as tight as the
    // probe's, the probe *is* the caller's solve — a trip then is a real
    // kConflictBudget answer, not a cue to fan out.
    const bool caller_tighter = conflict_budget_ != 0 &&
                                conflict_budget_ <= config_.inline_budget;
    Solver& probe = *workers_[0];
    probe.set_conflict_budget(caller_tighter ? conflict_budget_
                                             : config_.inline_budget);
    probe.set_deadline(deadline_);
    probe.set_interrupt_chain(interrupt_, nullptr);
    const LBool r = probe.solve(assumptions);
    if (r != LBool::kUndef) {
      model_source_ = 0;
      pstats_.inline_solves += 1;
      pstats_.last_winner = 0;
      return r;
    }
    const StopReason reason = probe.last_stop_reason();
    if (reason != StopReason::kConflictBudget || caller_tighter) {
      // Deadline / interrupt / memory / the caller's own conflict budget:
      // fanning out would blow the same budget K more times.
      last_stop_ = reason;
      pstats_.inline_solves += 1;
      pstats_.last_winner = -1;
      return LBool::kUndef;
    }
    pstats_.probe_escalations += 1;
    // Worker 0 keeps the probe's learnt clauses and its VSIDS activity is
    // now focused on this solve's hard variables — exactly what
    // pick_split_vars() ranks by.
  }

  stop_.store(false, std::memory_order_relaxed);
  winner_.store(-1, std::memory_order_relaxed);
  decisive_result_ = LBool::kUndef;
  cube_next_.store(0, std::memory_order_relaxed);
  cubes_unsat_.store(0, std::memory_order_relaxed);
  cubes_.clear();

  const bool cube_mode =
      config_.mode == ParMode::kCubes && !split_candidates_.empty();
  if (cube_mode) {
    cubes_ = build_cubes(pick_split_vars());
    pstats_.cubes_dispatched += cubes_.size();
    pstats_.last_num_cubes = cubes_.size();
  }

  const std::vector<Lit> base(assumptions.begin(), assumptions.end());
  for (auto& w : workers_) {
    // Every worker gets the full conflict budget (cubes are disjoint
    // subproblems, share-mode workers redundant ones); the deadline and
    // interrupt flag are shared wall-clock state either way.
    w->set_conflict_budget(conflict_budget_);
    w->set_deadline(deadline_);
    w->set_interrupt_chain(interrupt_, &stop_);
  }
  pstats_.parallel_solves += 1;
  for (int i = 0; i < num_workers(); ++i) {
    if (cube_mode) {
      threads_->submit([this, i, &base] { worker_run_cubes(i, base); });
    } else {
      threads_->submit([this, i, &base] { worker_run_share(i, base); });
    }
  }
  threads_->wait_idle();

  pstats_.cubes_unsat += cubes_unsat_.load(std::memory_order_relaxed);
  const int w = winner_.load(std::memory_order_acquire);
  if (w >= 0) {
    model_source_ = w;
    pstats_.last_winner = w;
    last_stop_ = StopReason::kNone;
    return decisive_result_;
  }
  pstats_.last_winner = -1;
  if (cube_mode &&
      cubes_unsat_.load(std::memory_order_relaxed) == cubes_.size()) {
    // The cubes partition the space over the split variables: all-UNSAT
    // means no assignment anywhere satisfies the formula + assumptions.
    last_stop_ = StopReason::kNone;
    return LBool::kFalse;
  }
  // Nobody was decisive: every worker stopped on a budget. Surface a real
  // stop reason — a worker halted by our own stop_ flag reports kInterrupt,
  // but with no winner stop_ was never raised, so any kInterrupt left here
  // is a genuine external interrupt (and external_interrupted() confirms
  // it for the cube-queue-exhausted corner where a worker ran out of cubes
  // with reason kNone).
  last_stop_ = StopReason::kDeadline;
  for (const auto& worker : workers_) {
    const StopReason r = worker->last_stop_reason();
    if (r == StopReason::kNone) continue;
    if (r == StopReason::kInterrupt && !external_interrupted()) continue;
    last_stop_ = r;
    break;
  }
  if (external_interrupted()) last_stop_ = StopReason::kInterrupt;
  return LBool::kUndef;
}

}  // namespace fl::sat

#include "attacks/engine.h"

#include <stdexcept>

#include "cnf/miter.h"

namespace fl::attacks {

using Clock = BudgetGuard::Clock;

const char* to_string(AttackStatus status) {
  switch (status) {
    case AttackStatus::kSuccess: return "success";
    case AttackStatus::kApproximate: return "approximate";
    case AttackStatus::kTimeout: return "timeout";
    case AttackStatus::kIterationLimit: return "iteration-limit";
    case AttackStatus::kKeySpaceEmpty: return "key-space-empty";
    case AttackStatus::kInterrupted: return "interrupted";
    case AttackStatus::kOutOfMemory: return "out-of-memory";
  }
  return "?";
}

runtime::JsonObject to_json(const IterationTrace& trace) {
  runtime::JsonObject o;
  o.field("attack", trace.attack);
  if (trace.cell >= 0) o.field("cell", trace.cell);
  o.field("iter", trace.iteration)
      .field("dip", trace.dip)
      .field("cv_ratio", trace.cv_ratio)
      .field("decisions", trace.decisions)
      .field("propagations", trace.propagations)
      .field("conflicts", trace.conflicts)
      .field("solve_s", trace.solve_s)
      .field("clauses_added", trace.clauses_added)
      .field("vars_added", trace.vars_added)
      .field("encode_s", trace.encode_s);
  return o;
}

void JsonlTraceSink::record(const IterationTrace& trace) {
  const std::string line = to_json(trace).str();
  const std::lock_guard<std::mutex> lock(mu_);
  out_ << line << '\n';
  out_.flush();  // a trace is for post-mortems; don't buffer past a crash
}

TraceFile::TraceFile(const std::string& path) {
  if (path.empty()) return;
  file_.emplace(runtime::open_jsonl(path));
  sink_.emplace(*file_);
}

BudgetGuard::BudgetGuard(const AttackOptions& options, Clock::time_point start)
    : start_(start), interrupt_(options.interrupt) {
  if (options.timeout_s > 0.0) {
    deadline_ = start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(options.timeout_s));
  }
  // An enclosing job budget caps the attack's own timeout, never extends it.
  if (options.deadline.has_value() &&
      (!deadline_ || *options.deadline < *deadline_)) {
    deadline_ = *options.deadline;
  }
}

double BudgetGuard::elapsed_s() const {
  return std::chrono::duration<double>(Clock::now() - start_).count();
}

double BudgetGuard::remaining_s() const {
  if (!deadline_) return 0.0;
  return std::max(
      0.0, std::chrono::duration<double>(*deadline_ - Clock::now()).count());
}

void BudgetGuard::arm(sat::SolverIface& solver) const {
  solver.set_deadline(deadline_);
  solver.set_interrupt(interrupt_);
}

std::optional<AttackStatus> BudgetGuard::exhausted() const {
  if (interrupt_ != nullptr && interrupt_->load(std::memory_order_relaxed)) {
    return AttackStatus::kInterrupted;
  }
  if (deadline_ && Clock::now() >= *deadline_) return AttackStatus::kTimeout;
  return std::nullopt;
}

AttackStatus BudgetGuard::undef_status(const sat::SolverIface& solver) const {
  switch (solver.last_stop_reason()) {
    case sat::StopReason::kInterrupt: return AttackStatus::kInterrupted;
    case sat::StopReason::kOutOfMemory: return AttackStatus::kOutOfMemory;
    default: return AttackStatus::kTimeout;
  }
}

MiterContext::Encoder MiterContext::double_key() {
  return [](const netlist::Netlist& locked, sat::SolverIface& solver,
            netlist::KeyConePartition* cone) {
    const cnf::AttackMiter miter =
        cnf::encode_attack_miter(locked, solver, cone);
    Parts parts;
    parts.inputs = miter.inputs;
    parts.key_copies = {miter.key1, miter.key2};
    parts.outputs = {miter.outputs1, miter.outputs2};
    parts.activate = miter.activate;
    parts.trivially_equal = miter.trivially_equal;
    return parts;
  };
}

MiterContext::MiterContext(const netlist::Netlist& locked,
                           const Encoder& encoder,
                           const AttackOptions& options)
    : locked_(&locked),
      engine_(sat::SolverConfig{.memory_limit_mb = options.memory_limit_mb}),
      // The wrapper never renumbers, so variable ids handed out below (key
      // copies, assumption literals) stay valid across the flush.
      pre_(engine_) {
  if (!locked.is_cyclic() && locked.num_keys() > 0) {
    cone_ = std::make_unique<netlist::KeyConePartition>(locked);
    fixed_sim_ = std::make_unique<netlist::Simulator>(cone_->fixed_region());
    // Only tap entries are ever read by the cone encoder; the const-0
    // default covers the rest of the GateId space.
    frontier_.assign(locked.num_gates(), cnf::NetLit::constant(false));
  }
  const auto t0 = Clock::now();
  parts_ = encoder(locked, pre_, cone_.get());
  encode_seconds_ += std::chrono::duration<double>(Clock::now() - t0).count();
  freeze_interface();
  if (parts_.outputs.size() >= 2) {
    const std::vector<cnf::NetLit>& out0 = parts_.outputs[0];
    const std::vector<cnf::NetLit>& out1 = parts_.outputs[1];
    for (std::size_t p = 0; p < out0.size(); ++p) {
      if (out0[p].kind != out1[p].kind ||
          (!out0[p].is_const() && out0[p].lit != out1[p].lit)) {
        key_dependent_ports_.push_back(p);
      }
    }
  }
  set_candidate(std::nullopt);
}

void MiterContext::freeze_interface() {
  for (const sat::Var v : parts_.inputs) {
    if (v != sat::kNullVar) pre_.freeze(v);
  }
  for (const std::vector<sat::Var>& copy : parts_.key_copies) {
    for (const sat::Var v : copy) {
      if (v != sat::kNullVar) pre_.freeze(v);
    }
  }
  if (parts_.activate.var() >= 0) pre_.freeze(parts_.activate.var());
}

void MiterContext::finalize_encoding() {
  if (finalized_) return;
  finalized_ = true;
  pre_.flush();
  base_clauses_ = pre_.num_clauses();
  base_vars_ = static_cast<std::size_t>(pre_.num_vars());
}

void MiterContext::sample_ratio() {
  if (pre_.num_vars() > 0) {
    last_ratio_ = static_cast<double>(pre_.num_clauses()) /
                  static_cast<double>(pre_.num_vars());
    ratio_sum_ += last_ratio_;
    ++ratio_samples_;
  }
}

double MiterContext::mean_ratio() const {
  return ratio_samples_ > 0 ? ratio_sum_ / static_cast<double>(ratio_samples_)
                            : 0.0;
}

std::vector<bool> MiterContext::extract_pattern() const {
  std::vector<bool> pattern(parts_.inputs.size());
  for (std::size_t i = 0; i < parts_.inputs.size(); ++i) {
    pattern[i] = pre_.value_of(parts_.inputs[i]);
  }
  return pattern;
}

std::vector<bool> MiterContext::extract_key(
    std::span<const sat::Var> key_vars) const {
  std::vector<bool> key(key_vars.size());
  for (std::size_t i = 0; i < key_vars.size(); ++i) {
    key[i] = pre_.value_of(key_vars[i]);
  }
  return key;
}

void MiterContext::constrain_io(const std::vector<bool>& pattern,
                                const std::vector<bool>& response) {
  constrain_io_batch({&pattern, 1}, {&response, 1});
}

void MiterContext::constrain_io_batch(
    std::span<const std::vector<bool>> patterns,
    std::span<const std::vector<bool>> responses) {
  if (patterns.size() != responses.size()) {
    throw std::invalid_argument(
        "MiterContext::constrain_io_batch: pattern/response count mismatch");
  }
  if (patterns.empty()) return;
  const auto t0 = Clock::now();
  if (cone_ == nullptr) {
    for (std::size_t p = 0; p < patterns.size(); ++p) {
      cnf::add_io_constraint(*locked_, pre_, parts_.key_copies,
                             patterns[p], responses[p]);
    }
  } else {
    // One bit-parallel sweep of the key-free region for the whole batch
    // (pattern p lives in bit p%64 of word p/64), then one cone-only Tseytin
    // encode per pattern against the swept constants, committed to every
    // key copy.
    const std::size_t n = patterns.size();
    const std::size_t n_words = (n + 63) / 64;
    const std::size_t n_in = locked_->num_inputs();
    std::vector<netlist::Word> in(n_in * n_words, 0);
    for (std::size_t p = 0; p < n; ++p) {
      const std::vector<bool>& pat = patterns[p];
      if (pat.size() != n_in) {
        throw std::invalid_argument(
            "MiterContext::constrain_io_batch: pattern size mismatch");
      }
      for (std::size_t i = 0; i < n_in; ++i) {
        if (pat[i]) in[i * n_words + p / 64] |= netlist::Word{1} << (p % 64);
      }
    }
    const std::span<const netlist::GateId> taps = cone_->taps();
    std::vector<netlist::Word> out(taps.size() * n_words);
    fixed_sim_->run_batch(in, {}, n_words, fixed_scratch_, out);
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t t = 0; t < taps.size(); ++t) {
        const bool v = ((out[t * n_words + p / 64] >> (p % 64)) & 1) != 0;
        frontier_[static_cast<std::size_t>(taps[t])] =
            cnf::NetLit::constant(v);
      }
      cnf::add_io_constraint_cone(*locked_, pre_, parts_.key_copies,
                                  cone_->cone_topo(), frontier_, responses[p]);
    }
  }
  encode_seconds_ += std::chrono::duration<double>(Clock::now() - t0).count();
}

void MiterContext::ban_key(std::span<const sat::Var> key_vars,
                           const std::vector<bool>& key) {
  sat::Clause ban;
  ban.reserve(key_vars.size());
  for (std::size_t i = 0; i < key_vars.size(); ++i) {
    ban.push_back(sat::Lit(key_vars[i], key[i]));
  }
  pre_.add_clause(std::move(ban));
}

void MiterContext::set_candidate(std::optional<std::vector<bool>> key) {
  if (key.has_value() && key->size() != key_copy(0).size()) {
    throw std::invalid_argument(
        "MiterContext::set_candidate: key size mismatch");
  }
  candidate_ = std::move(key);
  assumptions_.assign(1, parts_.activate);
  if (candidate_.has_value()) {
    const std::span<const sat::Var> keys = key_copy(0);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      assumptions_.push_back(sat::Lit(keys[i], !(*candidate_)[i]));
    }
  }
}

void MiterContext::update_candidate(const std::vector<bool>& response) {
  if (parts_.outputs.size() < 2) {
    throw std::logic_error(
        "MiterContext::update_candidate: the encoder exposed no outputs");
  }
  const auto reproduces = [&](std::size_t copy) {
    for (const std::size_t p : key_dependent_ports_) {
      const cnf::NetLit o = parts_.outputs[copy][p];
      const bool value = o.is_const()
                             ? o.const_value()
                             : pre_.value_of(o.lit.var()) != o.lit.negated();
      if (value != response[p]) return false;
    }
    return true;
  };
  if (reproduces(0)) {
    // With a candidate set, copy 0 carries it: nothing changes.
    if (!candidate_.has_value()) set_candidate(extract_key(key_copy(0)));
  } else if (reproduces(1)) {
    set_candidate(extract_key(key_copy(1)));
  } else {
    set_candidate(std::nullopt);
  }
}

sat::LBool MiterContext::check_candidate(const BudgetGuard& budget) {
  if (!candidate_.has_value()) {
    throw std::logic_error("MiterContext::check_candidate: no candidate");
  }
  std::vector<sat::Lit> fixed;
  for (const std::vector<sat::Var>& keys : parts_.key_copies) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      fixed.push_back(sat::Lit(keys[i], !(*candidate_)[i]));
    }
  }
  budget.arm(pre_);
  return pre_.solve(fixed);
}

LoopAction DipPolicy::after_iteration(MiterContext&, const BudgetGuard&,
                                      AttackResult&) {
  return LoopAction::kContinue;
}

LoopAction DipPolicy::on_no_dip(MiterContext& ctx, const BudgetGuard& budget,
                                AttackResult& result) {
  // No distinguishing input remains: any model of the surviving key space is
  // functionally correct.
  budget.arm(ctx.solver());
  const sat::LBool key_found = ctx.solver().solve();
  if (key_found == sat::LBool::kUndef) {
    result.status = budget.undef_status(ctx.solver());
    return LoopAction::kDone;
  }
  if (key_found == sat::LBool::kFalse) {
    result.status = AttackStatus::kKeySpaceEmpty;
    return LoopAction::kDone;
  }
  result.key = ctx.extract_key();
  result.status = AttackStatus::kSuccess;
  return LoopAction::kDone;
}

DipLoop::DipLoop(const Oracle& oracle, const AttackOptions& options,
                 const BudgetGuard& budget, std::string name)
    : oracle_(oracle), options_(options), budget_(budget),
      name_(std::move(name)) {}

AttackResult DipLoop::run(MiterContext& ctx, DipPolicy& policy) {
  AttackResult result;
  const std::uint64_t queries_before = oracle_.num_queries();
  sat::SolverIface& solver = ctx.solver();

  // Commit the staged base encoding (preprocessing runs here, over the
  // miter plus whatever preconditions the attack added before this loop).
  ctx.finalize_encoding();

  // Wall time spent inside completed DIP iterations (DIP solve + policy's
  // oracle query + constraint encoding); the divisor for
  // mean_iteration_seconds. Miter encoding (before this loop), the loop's
  // last (UNSAT) solve and the guard or key-extraction solve after it are
  // excluded.
  double dip_loop_seconds = 0.0;

  const auto finish = [&]() -> AttackResult& {
    result.seconds = budget_.elapsed_s();
    result.mean_iteration_seconds =
        result.iterations > 0
            ? dip_loop_seconds / static_cast<double>(result.iterations)
            : 0.0;
    result.mean_clause_var_ratio = ctx.mean_ratio();
    result.solver_stats = solver.stats();
    result.stop_reason = solver.last_stop_reason();
    result.oracle_queries = oracle_.num_queries() - queries_before;
    result.base_clauses = ctx.base_clauses();
    result.base_vars = ctx.base_vars();
    result.clauses_added = static_cast<long long>(solver.num_clauses()) -
                           static_cast<long long>(ctx.base_clauses());
    result.vars_added = static_cast<long long>(solver.num_vars()) -
                        static_cast<long long>(ctx.base_vars());
    result.encode_seconds = ctx.encode_seconds();
    result.cone_encoding = ctx.cone_encoding();
    result.preprocess = ctx.preprocess_stats();
    // Non-success exits keep the best-effort key sized to the key width so
    // consumers never index an empty vector.
    if (result.key.empty()) result.key = ctx.extract_key();
    return result;
  };

  if (ctx.trivially_equal()) {
    // Output does not depend on the key at all: any key unlocks.
    result.key.assign(ctx.locked().num_keys(), false);
    result.status = AttackStatus::kSuccess;
    return finish();
  }

  while (true) {
    if (options_.max_iterations != 0 &&
        result.iterations >= options_.max_iterations) {
      result.status = AttackStatus::kIterationLimit;
      return finish();
    }
    const auto iteration_start = Clock::now();
    const auto iter_clauses = static_cast<long long>(solver.num_clauses());
    const auto iter_vars = static_cast<long long>(solver.num_vars());
    const double iter_encode_s = ctx.encode_seconds();
    budget_.arm(solver);
    ctx.sample_ratio();
    const double ratio = ctx.last_ratio();
    const sat::CounterSnapshot before = solver.counters();
    const auto solve_start = Clock::now();
    const sat::LBool dip_found = solver.solve(ctx.dip_assumptions());
    const double solve_s =
        std::chrono::duration<double>(Clock::now() - solve_start).count();
    if (dip_found == sat::LBool::kUndef) {
      result.status = budget_.undef_status(solver);
      return finish();
    }
    if (dip_found == sat::LBool::kFalse && ctx.candidate().has_value()) {
      // No key consistent with the DIPs disagrees with the candidate on any
      // input. That proves the candidate once the guard shows it is itself
      // consistent with the DIPs; the guard takes the extraction solve's
      // place.
      const sat::LBool consistent = ctx.check_candidate(budget_);
      if (consistent == sat::LBool::kUndef) {
        result.status = budget_.undef_status(solver);
        return finish();
      }
      if (consistent == sat::LBool::kTrue) {
        result.key = *ctx.candidate();
        result.key_confirmed = true;
        result.status = AttackStatus::kSuccess;
        return finish();
      }
      // Unreachable unless the candidate bookkeeping is wrong: go on with
      // the free miter.
      ctx.set_candidate(std::nullopt);
      continue;
    }
    if (dip_found == sat::LBool::kFalse) {
      if (policy.on_no_dip(ctx, budget_, result) == LoopAction::kRetry) {
        continue;  // e.g. a stateful extracted key was banned
      }
      return finish();
    }

    const std::vector<bool> pattern = ctx.extract_pattern();
    const LoopAction action = policy.on_dip(ctx, budget_, pattern, result);
    if (action == LoopAction::kRetry) continue;  // uncounted (key bans)
    if (action == LoopAction::kDone) return finish();

    ++result.iterations;
    dip_loop_seconds +=
        std::chrono::duration<double>(Clock::now() - iteration_start).count();
    if (options_.trace != nullptr) {
      IterationTrace trace;
      trace.attack = name_;
      trace.cell = options_.trace_cell;
      trace.iteration = result.iterations - 1;
      trace.dip.reserve(pattern.size());
      for (const bool bit : pattern) trace.dip.push_back(bit ? '1' : '0');
      trace.cv_ratio = ratio;
      const sat::CounterSnapshot after = solver.counters();
      trace.decisions = after.decisions - before.decisions;
      trace.propagations = after.propagations - before.propagations;
      trace.conflicts = after.conflicts - before.conflicts;
      trace.solve_s = solve_s;
      trace.clauses_added =
          static_cast<long long>(solver.num_clauses()) - iter_clauses;
      trace.vars_added = static_cast<long long>(solver.num_vars()) - iter_vars;
      trace.encode_s = ctx.encode_seconds() - iter_encode_s;
      options_.trace->record(trace);
    }
    if (policy.after_iteration(ctx, budget_, result) == LoopAction::kDone) {
      return finish();
    }
  }
}

}  // namespace fl::attacks

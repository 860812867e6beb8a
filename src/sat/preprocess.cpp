#include "sat/preprocess.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace fl::sat {

namespace {

bool lit_true(const Lit l, const std::vector<bool>& model) {
  return model[static_cast<std::size_t>(l.var())] != l.negated();
}

bool contains_lit(const Clause& sorted, const Lit l) {
  return std::binary_search(sorted.begin(), sorted.end(), l);
}

}  // namespace

PreprocessSolver::PreprocessSolver(SolverIface& inner, PreprocessConfig config)
    : inner_(inner), config_(config) {
  if (inner_.num_vars() != 0 || inner_.num_clauses() != 0) {
    throw std::invalid_argument(
        "PreprocessSolver: inner solver must start empty (ids must coincide)");
  }
}

PreprocessSolver::Norm PreprocessSolver::normalize(Clause& clause) {
  std::sort(clause.begin(), clause.end());
  clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
  for (std::size_t i = 1; i < clause.size(); ++i) {
    if (clause[i].var() == clause[i - 1].var()) return Norm::kTautology;
  }
  return clause.empty() ? Norm::kEmpty : Norm::kOk;
}

std::uint64_t PreprocessSolver::signature(const Clause& clause) {
  std::uint64_t sig = 0;
  for (const Lit l : clause) sig |= std::uint64_t{1} << (l.var() & 63);
  return sig;
}

Var PreprocessSolver::new_var() {
  if (flushed_) return inner_.new_var();
  return next_var_++;
}

int PreprocessSolver::num_vars() const {
  return flushed_ ? inner_.num_vars() : next_var_;
}

void PreprocessSolver::check_no_eliminated(const Clause& clause) const {
  for (const Lit l : clause) {
    if (is_eliminated(l.var())) {
      throw std::logic_error(
          "PreprocessSolver: clause uses an eliminated variable (freeze it "
          "before preprocessing)");
    }
  }
}

bool PreprocessSolver::add_clause(Clause clause) {
  for (const Lit l : clause) {
    if (l.var() < 0 || l.var() >= num_vars()) {
      throw std::invalid_argument("PreprocessSolver::add_clause: unknown var");
    }
  }
  if (preprocessed_) check_no_eliminated(clause);
  if (flushed_) return inner_.add_clause(std::move(clause));
  switch (normalize(clause)) {
    case Norm::kTautology:
      return !contradiction_;
    case Norm::kEmpty:
      contradiction_ = true;
      return false;
    case Norm::kOk:
      break;
  }
  push_clause(std::move(clause));
  return !contradiction_;
}

void PreprocessSolver::push_clause(Clause clause) {
  if (preprocessed_ && !assigns_.empty()) {
    // Simplify against root assignments (resolvents added mid-elimination,
    // or clauses staged after an explicit preprocess() call).
    Clause kept;
    kept.reserve(clause.size());
    for (const Lit l : clause) {
      const LBool a = assigns_[static_cast<std::size_t>(l.var())];
      if (a == LBool::kUndef) {
        kept.push_back(l);
        continue;
      }
      if ((a == LBool::kTrue) != l.negated()) return;  // satisfied at root
    }
    clause = std::move(kept);
    if (clause.empty()) {
      contradiction_ = true;
      return;
    }
  }
  const auto idx = static_cast<std::uint32_t>(db_.size());
  StagedClause sc;
  sc.sig = signature(clause);
  sc.lits = std::move(clause);
  const std::size_t max_index =
      static_cast<std::size_t>(sc.lits.back().index()) + 1;
  if (occ_.size() < max_index) occ_.resize(max_index);
  for (const Lit l : sc.lits) {
    occ_[static_cast<std::size_t>(l.index())].push_back(idx);
  }
  if (sc.lits.size() == 1 && preprocessed_) enqueue(sc.lits[0]);
  db_.push_back(std::move(sc));
  ++live_clauses_;
}

void PreprocessSolver::del_clause(std::size_t idx) {
  if (db_[idx].deleted) return;
  db_[idx].deleted = true;
  --live_clauses_;
  ++stats_.removed_clauses;
}

void PreprocessSolver::freeze(Var v) {
  if (v < 0 || v >= next_var_) {
    throw std::invalid_argument("PreprocessSolver::freeze: unknown variable");
  }
  if (preprocessed_) {
    throw std::logic_error("PreprocessSolver::freeze: already preprocessed");
  }
  if (frozen_.size() < static_cast<std::size_t>(next_var_)) {
    frozen_.resize(static_cast<std::size_t>(next_var_), false);
  }
  frozen_[static_cast<std::size_t>(v)] = true;
}

void PreprocessSolver::enqueue(Lit l) {
  LBool& a = assigns_[static_cast<std::size_t>(l.var())];
  const LBool want = lbool_from(!l.negated());
  if (a == want) return;
  if (a != LBool::kUndef) {
    contradiction_ = true;
    return;
  }
  a = want;
  ++stats_.fixed_vars;
  trail_.push_back(l);
}

void PreprocessSolver::propagate() {
  while (qhead_ < trail_.size() && !contradiction_) {
    const Lit l = trail_[qhead_++];
    const auto sat_idx = static_cast<std::size_t>(l.index());
    if (sat_idx < occ_.size()) {
      for (const std::uint32_t ci : occ_[sat_idx]) {
        steps_ += 1;
        if (!db_[ci].deleted && contains_lit(db_[ci].lits, l)) del_clause(ci);
      }
    }
    const auto neg_idx = static_cast<std::size_t>((~l).index());
    if (neg_idx < occ_.size()) {
      for (const std::uint32_t ci : occ_[neg_idx]) {
        StagedClause& sc = db_[ci];
        steps_ += 1;
        if (sc.deleted || !contains_lit(sc.lits, ~l)) continue;
        sc.lits.erase(std::remove(sc.lits.begin(), sc.lits.end(), ~l),
                      sc.lits.end());
        sc.sig = signature(sc.lits);
        if (sc.lits.empty()) {
          contradiction_ = true;
          return;
        }
        if (sc.lits.size() == 1) enqueue(sc.lits[0]);
      }
    }
  }
}

void PreprocessSolver::subsume_all() {
  for (std::size_t ci = 0; ci < db_.size(); ++ci) {
    if (contradiction_) return;
    if (!budget_ok()) {
      stats_.budget_exhausted = true;
      return;
    }
    if (db_[ci].deleted) continue;
    backward_subsume(ci);
  }
  propagate();  // strengthening can create units
}

void PreprocessSolver::backward_subsume(std::size_t ci) {
  // Candidates come from the occurrence list of the clause's least-occurring
  // literal; signatures prune most non-supersets before the subset test.
  const Clause self = db_[ci].lits;  // copy: strengthen() may edit db_
  const std::uint64_t sig = db_[ci].sig;

  Lit best = self[0];
  std::size_t best_size = ~std::size_t{0};
  for (const Lit l : self) {
    const auto idx = static_cast<std::size_t>(l.index());
    const std::size_t size = idx < occ_.size() ? occ_[idx].size() : 0;
    if (size < best_size) {
      best_size = size;
      best = l;
    }
  }
  if (best_size <= config_.max_occurrences) {
    for (const std::uint32_t di : occ_[static_cast<std::size_t>(best.index())]) {
      if (di == ci || db_[di].deleted) continue;
      const StagedClause& d = db_[di];
      if (d.lits.size() < self.size() || (sig & ~d.sig) != 0) continue;
      steps_ += self.size();
      if (std::includes(d.lits.begin(), d.lits.end(), self.begin(),
                        self.end())) {
        del_clause(di);
        ++stats_.subsumed_clauses;
      }
    }
  }

  // Self-subsuming resolution: if (self \ {l}) ∪ {~l} ⊆ D, remove ~l from D.
  // Variable signatures are sign-blind, so `sig` prunes here too.
  for (const Lit l : self) {
    if (contradiction_ || !budget_ok()) return;
    const auto idx = static_cast<std::size_t>((~l).index());
    if (idx >= occ_.size() || occ_[idx].size() > config_.max_occurrences) {
      continue;
    }
    for (const std::uint32_t di : occ_[idx]) {
      if (di == ci || db_[di].deleted) continue;
      const StagedClause& d = db_[di];
      if (d.lits.size() < self.size() || (sig & ~d.sig) != 0) continue;
      steps_ += self.size();
      bool subset = true;
      for (const Lit m : self) {
        const Lit want = (m == l) ? ~l : m;
        if (!contains_lit(d.lits, want)) {
          subset = false;
          break;
        }
      }
      if (subset) strengthen(di, ~l);
    }
  }
}

void PreprocessSolver::strengthen(std::size_t di, Lit l) {
  StagedClause& sc = db_[di];
  sc.lits.erase(std::remove(sc.lits.begin(), sc.lits.end(), l), sc.lits.end());
  sc.sig = signature(sc.lits);
  ++stats_.strengthened_literals;
  if (sc.lits.empty()) {
    contradiction_ = true;
    return;
  }
  if (sc.lits.size() == 1) enqueue(sc.lits[0]);
}

void PreprocessSolver::eliminate_vars() {
  std::vector<std::pair<std::size_t, Var>> order;
  order.reserve(static_cast<std::size_t>(next_var_));
  for (Var v = 0; v < next_var_; ++v) {
    const std::size_t sv = static_cast<std::size_t>(v);
    if (frozen_[sv] || assigns_[sv] != LBool::kUndef) continue;
    const auto pi = static_cast<std::size_t>(pos(v).index());
    const auto ni = static_cast<std::size_t>(neg(v).index());
    const std::size_t count = (pi < occ_.size() ? occ_[pi].size() : 0) +
                              (ni < occ_.size() ? occ_[ni].size() : 0);
    order.emplace_back(count, v);
  }
  std::sort(order.begin(), order.end());

  bool progress = true;
  for (int pass = 0; progress && pass < 3; ++pass) {
    progress = false;
    for (const auto& [count, v] : order) {
      if (contradiction_) return;
      if (!budget_ok()) {
        stats_.budget_exhausted = true;
        return;
      }
      const std::size_t sv = static_cast<std::size_t>(v);
      if (eliminated_[sv] || assigns_[sv] != LBool::kUndef) continue;
      if (try_eliminate(v)) progress = true;
    }
    propagate();
  }
}

bool PreprocessSolver::try_eliminate(Var v) {
  auto gather = [&](Lit l, std::vector<std::uint32_t>& out) {
    out.clear();
    const auto idx = static_cast<std::size_t>(l.index());
    if (idx >= occ_.size()) return;
    for (const std::uint32_t ci : occ_[idx]) {
      steps_ += 1;
      if (!db_[ci].deleted && contains_lit(db_[ci].lits, l)) out.push_back(ci);
    }
  };
  std::vector<std::uint32_t> pos_occ, neg_occ;
  gather(pos(v), pos_occ);
  gather(neg(v), neg_occ);
  if (pos_occ.size() + neg_occ.size() > config_.max_occurrences) return false;

  std::vector<Clause> resolvents;
  const std::size_t limit =
      pos_occ.size() + neg_occ.size() +
      static_cast<std::size_t>(std::max(config_.grow, 0));
  Clause r;
  for (const std::uint32_t pi : pos_occ) {
    for (const std::uint32_t ni : neg_occ) {
      steps_ += db_[pi].lits.size() + db_[ni].lits.size();
      if (!resolve(db_[pi].lits, db_[ni].lits, v, r)) continue;  // tautology
      if (r.size() > config_.max_resolvent_len) return false;
      resolvents.push_back(r);
      if (resolvents.size() > limit) return false;
    }
  }

  Elimination e;
  e.v = v;
  e.pos_clauses.reserve(pos_occ.size());
  for (const std::uint32_t pi : pos_occ) e.pos_clauses.push_back(db_[pi].lits);
  elim_stack_.push_back(std::move(e));
  for (const std::uint32_t ci : pos_occ) del_clause(ci);
  for (const std::uint32_t ci : neg_occ) del_clause(ci);
  eliminated_[static_cast<std::size_t>(v)] = true;
  ++stats_.eliminated_vars;
  for (Clause& res : resolvents) {
    ++stats_.resolvents_added;
    push_clause(std::move(res));
    if (contradiction_) break;
  }
  return true;
}

bool PreprocessSolver::resolve(const Clause& pos_clause,
                               const Clause& neg_clause, Var pivot,
                               Clause& out) const {
  out.clear();
  for (const Lit l : pos_clause) {
    if (l.var() != pivot) out.push_back(l);
  }
  for (const Lit l : neg_clause) {
    if (l.var() != pivot) out.push_back(l);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i].var() == out[i - 1].var()) return false;
  }
  return true;
}

void PreprocessSolver::preprocess() {
  if (preprocessed_ || flushed_) return;
  preprocessed_ = true;
  const auto t0 = std::chrono::steady_clock::now();
  stats_.ran = true;
  stats_.input_vars = static_cast<std::size_t>(next_var_);
  stats_.input_clauses = live_clauses_;

  assigns_.assign(static_cast<std::size_t>(next_var_), LBool::kUndef);
  frozen_.resize(static_cast<std::size_t>(next_var_), false);
  eliminated_.assign(static_cast<std::size_t>(next_var_), false);

  if (!contradiction_) {
    for (std::size_t ci = 0; ci < db_.size() && !contradiction_; ++ci) {
      if (!db_[ci].deleted && db_[ci].lits.size() == 1) enqueue(db_[ci].lits[0]);
    }
    propagate();
  }
  if (!contradiction_) subsume_all();
  if (!contradiction_) eliminate_vars();

  stats_.output_clauses = contradiction_ ? 0 : live_clauses_;
  stats_.preprocess_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

void PreprocessSolver::flush() {
  if (flushed_) return;
  preprocess();
  flushed_ = true;
  while (inner_.num_vars() < next_var_) inner_.new_var();
  for (const auto& [v, phase] : pending_phases_) inner_.set_phase(v, phase);
  pending_phases_.clear();
  if (contradiction_) {
    inner_.add_clause(Clause{});
    release_staging();
    return;
  }
  for (Var v = 0; v < next_var_; ++v) {
    const std::size_t sv = static_cast<std::size_t>(v);
    if (assigns_[sv] != LBool::kUndef) {
      inner_.add_clause({Lit(v, assigns_[sv] == LBool::kFalse)});
    } else if (eliminated_[sv]) {
      inner_.add_clause({neg(v)});  // pin; real value reconstructed on demand
    }
  }
  for (StagedClause& sc : db_) {
    if (!sc.deleted && sc.lits.size() > 1) {
      inner_.add_clause(std::move(sc.lits));
    }
  }
  release_staging();
}

void PreprocessSolver::release_staging() {
  db_.clear();
  db_.shrink_to_fit();
  occ_.clear();
  occ_.shrink_to_fit();
  trail_.clear();
  trail_.shrink_to_fit();
  frozen_.clear();
  frozen_.shrink_to_fit();
  // assigns_ stays: it is the record of root-fixed values; eliminated_ and
  // elim_stack_ stay for is_eliminated() checks and model extension.
}

LBool PreprocessSolver::solve(std::span<const Lit> assumptions) {
  if (!flushed_) flush();
  for (const Lit a : assumptions) {
    if (is_eliminated(a.var())) {
      throw std::logic_error(
          "PreprocessSolver::solve: assumption over an eliminated variable");
    }
  }
  model_valid_ = false;
  const LBool r = inner_.solve(assumptions);
  if (r == LBool::kTrue) extend_model();
  return r;
}

void PreprocessSolver::extend_model() {
  model_ = inner_.model();
  if (model_.size() < static_cast<std::size_t>(inner_.num_vars())) {
    model_.resize(static_cast<std::size_t>(inner_.num_vars()), false);
  }
  for (auto it = elim_stack_.rbegin(); it != elim_stack_.rend(); ++it) {
    bool value = false;
    for (const Clause& c : it->pos_clauses) {
      bool satisfied = false;
      for (const Lit l : c) {
        if (l.var() == it->v) continue;
        if (lit_true(l, model_)) {
          satisfied = true;
          break;
        }
      }
      if (!satisfied) {
        value = true;
        break;
      }
    }
    model_[static_cast<std::size_t>(it->v)] = value;
  }
  model_valid_ = true;
}

bool PreprocessSolver::value_of(Var v) const {
  if (model_valid_ && static_cast<std::size_t>(v) < model_.size()) {
    return model_[static_cast<std::size_t>(v)];
  }
  return inner_.value_of(v);
}

std::vector<bool> PreprocessSolver::model() const {
  if (model_valid_) return model_;
  return inner_.model();
}

void PreprocessSolver::set_phase(Var v, bool phase) {
  if (flushed_) {
    inner_.set_phase(v, phase);
    return;
  }
  pending_phases_.emplace_back(v, phase);
}

void PreprocessSolver::set_conflict_budget(std::uint64_t max_conflicts) {
  inner_.set_conflict_budget(max_conflicts);
}

void PreprocessSolver::set_deadline(
    std::optional<std::chrono::steady_clock::time_point> t) {
  inner_.set_deadline(t);
}

void PreprocessSolver::set_interrupt(const std::atomic<bool>* flag) {
  inner_.set_interrupt(flag);
}

bool PreprocessSolver::last_solve_interrupted() const {
  return inner_.last_solve_interrupted();
}

StopReason PreprocessSolver::last_stop_reason() const {
  return inner_.last_stop_reason();
}

const SolverStats& PreprocessSolver::stats() const { return inner_.stats(); }

CounterSnapshot PreprocessSolver::counters() const {
  return inner_.counters();
}

std::size_t PreprocessSolver::num_clauses() const {
  return flushed_ ? inner_.num_clauses() : live_clauses_;
}

std::size_t PreprocessSolver::num_learnts() const {
  return inner_.num_learnts();
}

std::size_t PreprocessSolver::memory_bytes() const {
  std::size_t staged = db_.capacity() * sizeof(StagedClause);
  for (const StagedClause& sc : db_) staged += sc.lits.capacity() * sizeof(Lit);
  for (const auto& o : occ_) staged += o.capacity() * sizeof(std::uint32_t);
  return inner_.memory_bytes() + staged;
}

}  // namespace fl::sat

#include "sat/preprocess.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace fl::sat {

namespace {

// Variable elimination accepts a variable iff the number of non-tautological
// resolvents is at most (#positive + #negative occurrences) + kGrow.
constexpr std::size_t kGrow = 0;
// Reject an elimination outright if any resolvent would exceed this length.
constexpr std::size_t kMaxResolventLen = 24;
// Skip subsumption/elimination work on literals or variables whose
// occurrence lists are larger than this (quadratic-blowup guard).
constexpr std::size_t kMaxOccurrences = 400;
// Global work budget in literal-visit steps; preprocessing stops cleanly
// (but soundly) when exhausted.
constexpr std::uint64_t kStepBudget = 40'000'000;

bool lit_true(const Lit l, const std::vector<bool>& model) {
  return model[static_cast<std::size_t>(l.var())] != l.negated();
}

bool contains_lit(const Clause& sorted, const Lit l) {
  return std::binary_search(sorted.begin(), sorted.end(), l);
}

enum class Norm { kOk, kTautology, kEmpty };

Norm normalize(Clause& clause) {
  std::sort(clause.begin(), clause.end());
  clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
  for (std::size_t i = 1; i < clause.size(); ++i) {
    if (clause[i].var() == clause[i - 1].var()) return Norm::kTautology;
  }
  return clause.empty() ? Norm::kEmpty : Norm::kOk;
}

std::uint64_t signature(const Clause& clause) {
  std::uint64_t sig = 0;
  for (const Lit l : clause) sig |= std::uint64_t{1} << (l.var() & 63);
  return sig;
}

// The resolution rule on two sorted clauses: `a` holds the pivot positively,
// `b` negatively. Returns false for a tautological resolvent. Otherwise sets
// `size` to the resolvent's length and, with `out` non-null, writes the
// resolvent there sorted and deduplicated. One merge pass, no sorting, so
// counting the resolvents of a rejected elimination allocates nothing.
bool resolve(const Clause& a, const Clause& b, Var pivot, std::size_t& size,
             Clause* out) {
  size = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    Lit next;
    if (j == b.size() || (i < a.size() && a[i].var() < b[j].var())) {
      next = a[i++];
    } else if (i == a.size() || b[j].var() < a[i].var()) {
      next = b[j++];
    } else if (a[i] == b[j]) {
      next = a[i++];
      ++j;
    } else if (a[i].var() == pivot) {
      ++i;
      ++j;
      continue;
    } else {
      return false;  // complementary pair off the pivot
    }
    ++size;
    if (out != nullptr) out->push_back(next);
  }
  return true;
}

}  // namespace

// ---- Simplifier ----------------------------------------------------------

bool Simplifier::budget_ok() const { return steps_ < kStepBudget; }

Var Simplifier::new_var() {
  if (simplified_) {
    assigns_.push_back(LBool::kUndef);
    eliminated_.push_back(false);
    touched_.push_back(false);
  }
  return next_var_++;
}

void Simplifier::freeze(Var v) {
  if (v < 0 || v >= next_var_) {
    throw std::invalid_argument("Simplifier::freeze: unknown variable");
  }
  if (simplified_) {
    throw std::logic_error("Simplifier::freeze: already simplified");
  }
  if (frozen_.size() < static_cast<std::size_t>(next_var_)) {
    frozen_.resize(static_cast<std::size_t>(next_var_), false);
  }
  frozen_[static_cast<std::size_t>(v)] = true;
}

void Simplifier::add_clause(Clause clause) {
  switch (normalize(clause)) {
    case Norm::kTautology:
      return;
    case Norm::kEmpty:
      contradiction_ = true;
      return;
    case Norm::kOk:
      break;
  }
  push_clause(std::move(clause));
}

std::span<const std::uint32_t> Simplifier::occ(Lit l) const {
  const auto idx = static_cast<std::size_t>(l.index());
  if (idx >= occ_.size()) return {};
  const OccSlot& o = occ_[idx];
  return {occ_pool_.data() + o.begin, o.size};
}

void Simplifier::occ_push(Lit l, std::uint32_t ci) {
  OccSlot& o = occ_[static_cast<std::size_t>(l.index())];
  if (o.size == o.cap) {
    const std::uint32_t cap = std::max<std::uint32_t>(4, 2 * o.cap);
    const auto begin = static_cast<std::uint32_t>(occ_pool_.size());
    occ_pool_.resize(occ_pool_.size() + cap);
    std::copy_n(occ_pool_.begin() + o.begin, o.size,
                occ_pool_.begin() + begin);
    o.begin = begin;
    o.cap = cap;
  }
  occ_pool_[o.begin + o.size++] = ci;
}

void Simplifier::build_occurrences() {
  occ_.assign(2 * static_cast<std::size_t>(next_var_), OccSlot{});
  for (const StagedClause& sc : db_) {
    for (const Lit l : sc.lits) ++occ_[static_cast<std::size_t>(l.index())].cap;
  }
  std::uint32_t begin = 0;
  for (OccSlot& o : occ_) {
    o.begin = begin;
    begin += o.cap;
  }
  occ_pool_.resize(begin);
  for (std::size_t ci = 0; ci < db_.size(); ++ci) {
    for (const Lit l : db_[ci].lits) {
      OccSlot& o = occ_[static_cast<std::size_t>(l.index())];
      occ_pool_[o.begin + o.size++] = static_cast<std::uint32_t>(ci);
    }
  }
}

LBool Simplifier::value(Var v) const {
  const auto sv = static_cast<std::size_t>(v);
  return sv < assigns_.size() ? assigns_[sv] : LBool::kUndef;
}

void Simplifier::push_clause(Clause clause) {
  if (simplified_ && !assigns_.empty()) {
    // Simplify against root assignments (resolvents added mid-elimination,
    // or clauses added after simplify()).
    std::size_t kept = 0;
    for (const Lit l : clause) {
      const LBool a = assigns_[static_cast<std::size_t>(l.var())];
      if (a == LBool::kUndef) {
        clause[kept++] = l;
        continue;
      }
      if ((a == LBool::kTrue) != l.negated()) return;  // satisfied at root
    }
    clause.resize(kept);
    if (clause.empty()) {
      contradiction_ = true;
      return;
    }
  }
  const auto idx = static_cast<std::uint32_t>(db_.size());
  StagedClause sc;
  sc.sig = signature(clause);
  sc.lits = std::move(clause);
  if (simplified_) {  // staged clauses get their lists in build_occurrences()
    const std::size_t max_index =
        static_cast<std::size_t>(sc.lits.back().index()) + 1;
    if (occ_.size() < max_index) occ_.resize(max_index);
    for (const Lit l : sc.lits) occ_push(l, idx);
    touch(sc.lits);
    if (sc.lits.size() == 1) enqueue(sc.lits[0]);
  }
  db_.push_back(std::move(sc));
  ++live_clauses_;
}

void Simplifier::del_clause(std::size_t idx) {
  if (db_[idx].deleted) return;
  touch(db_[idx].lits);
  db_[idx].deleted = true;
  --live_clauses_;
  ++stats_.removed_clauses;
}

void Simplifier::enqueue(Lit l) {
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

void Simplifier::propagate() {
  while (qhead_ < trail_.size() && !contradiction_) {
    const Lit l = trail_[qhead_++];
    for (const std::uint32_t ci : occ(l)) {
      steps_ += 1;
      if (!db_[ci].deleted && contains_lit(db_[ci].lits, l)) del_clause(ci);
    }
    for (const std::uint32_t ci : occ(~l)) {
      StagedClause& sc = db_[ci];
      steps_ += 1;
      if (sc.deleted || !contains_lit(sc.lits, ~l)) continue;
      sc.lits.erase(std::remove(sc.lits.begin(), sc.lits.end(), ~l),
                    sc.lits.end());
      sc.sig = signature(sc.lits);
      touch(sc.lits);
      if (sc.lits.empty()) {
        contradiction_ = true;
        return;
      }
      if (sc.lits.size() == 1) enqueue(sc.lits[0]);
    }
  }
}

void Simplifier::subsume_all() {
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

void Simplifier::backward_subsume(std::size_t ci) {
  // Candidates come from the occurrence list of the clause's least-occurring
  // literal; signatures prune most non-supersets before the subset test.
  const Clause self = db_[ci].lits;  // copy: strengthen() may edit db_
  const std::uint64_t sig = db_[ci].sig;

  Lit best = self[0];
  std::size_t best_size = ~std::size_t{0};
  for (const Lit l : self) {
    const std::size_t size = occ(l).size();
    if (size < best_size) {
      best_size = size;
      best = l;
    }
  }
  if (best_size <= kMaxOccurrences) {
    for (const std::uint32_t di : occ(best)) {
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
    const std::span<const std::uint32_t> candidates = occ(~l);
    if (candidates.size() > kMaxOccurrences) continue;
    for (const std::uint32_t di : candidates) {
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

void Simplifier::strengthen(std::size_t di, Lit l) {
  StagedClause& sc = db_[di];
  sc.lits.erase(std::remove(sc.lits.begin(), sc.lits.end(), l), sc.lits.end());
  sc.sig = signature(sc.lits);
  touch(sc.lits);
  ++stats_.strengthened_literals;
  if (sc.lits.empty()) {
    contradiction_ = true;
    return;
  }
  if (sc.lits.size() == 1) enqueue(sc.lits[0]);
}

void Simplifier::touch(const Clause& clause) {
  for (const Lit l : clause) touched_[static_cast<std::size_t>(l.var())] = true;
}

void Simplifier::eliminate_vars() {
  std::vector<std::pair<std::size_t, Var>> order;
  order.reserve(static_cast<std::size_t>(next_var_));
  for (Var v = 0; v < next_var_; ++v) {
    const std::size_t sv = static_cast<std::size_t>(v);
    if (frozen_[sv] || assigns_[sv] != LBool::kUndef) continue;
    order.emplace_back(occ(pos(v)).size() + occ(neg(v)).size(), v);
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
      if (pass > 0 && !touched_[sv]) continue;
      touched_[sv] = false;
      if (try_eliminate(v)) progress = true;
    }
    propagate();
  }
}

void Simplifier::gather(Lit l, std::vector<std::uint32_t>& out) {
  out.clear();
  for (const std::uint32_t ci : occ(l)) {
    steps_ += 1;
    if (!db_[ci].deleted && contains_lit(db_[ci].lits, l)) out.push_back(ci);
  }
}

bool Simplifier::try_eliminate(Var v) {
  gather(pos(v), pos_occ_);
  gather(neg(v), neg_occ_);
  if (pos_occ_.size() + neg_occ_.size() > kMaxOccurrences) {
    return false;
  }

  // Count first: most candidates are rejected, and a rejection must not pay
  // for building resolvents.
  const std::size_t limit = pos_occ_.size() + neg_occ_.size() + kGrow;
  std::size_t count = 0;
  std::size_t size = 0;
  for (const std::uint32_t pi : pos_occ_) {
    for (const std::uint32_t ni : neg_occ_) {
      steps_ += db_[pi].lits.size() + db_[ni].lits.size();
      if (!resolve(db_[pi].lits, db_[ni].lits, v, size, nullptr)) continue;
      if (size > kMaxResolventLen) return false;
      if (++count > limit) return false;
    }
  }

  std::vector<Clause> resolvents;
  resolvents.reserve(count);
  Clause r;
  for (const std::uint32_t pi : pos_occ_) {
    for (const std::uint32_t ni : neg_occ_) {
      r.clear();
      if (resolve(db_[pi].lits, db_[ni].lits, v, size, &r)) {
        resolvents.push_back(r);
      }
    }
  }

  for (const std::uint32_t pi : pos_occ_) {
    const Clause& c = db_[pi].lits;
    elim_lits_.insert(elim_lits_.end(), c.begin(), c.end());
    elim_lits_.push_back(kUndefLit);
  }
  elim_stack_.push_back({v, elim_lits_.size()});
  for (const std::uint32_t ci : pos_occ_) del_clause(ci);
  for (const std::uint32_t ci : neg_occ_) del_clause(ci);
  eliminated_[static_cast<std::size_t>(v)] = true;
  ++stats_.eliminated_vars;
  for (Clause& res : resolvents) {
    ++stats_.resolvents_added;
    push_clause(std::move(res));
    if (contradiction_) break;
  }
  return true;
}

void Simplifier::simplify(bool subsume) {
  if (simplified_) return;
  simplified_ = true;
  const auto t0 = std::chrono::steady_clock::now();
  stats_.ran = true;
  stats_.input_vars = static_cast<std::size_t>(next_var_);
  stats_.input_clauses = live_clauses_;

  assigns_.assign(static_cast<std::size_t>(next_var_), LBool::kUndef);
  frozen_.resize(static_cast<std::size_t>(next_var_), false);
  eliminated_.assign(static_cast<std::size_t>(next_var_), false);
  touched_.assign(static_cast<std::size_t>(next_var_), false);
  build_occurrences();

  if (!contradiction_) {
    for (std::size_t ci = 0; ci < db_.size() && !contradiction_; ++ci) {
      if (!db_[ci].deleted && db_[ci].lits.size() == 1) enqueue(db_[ci].lits[0]);
    }
    propagate();
  }
  if (!contradiction_ && subsume) subsume_all();
  if (!contradiction_) eliminate_vars();
  // Elimination can stop on its budget with units still queued.
  propagate();

  stats_.output_clauses = contradiction_ ? 0 : live_clauses_;
  stats_.preprocess_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
}

std::vector<Clause> Simplifier::take_clauses() {
  std::vector<Clause> out;
  if (!contradiction_) {
    out.reserve(live_clauses_);
    for (StagedClause& sc : db_) {
      if (!sc.deleted && sc.lits.size() > 1) out.push_back(std::move(sc.lits));
    }
  }
  live_clauses_ = 0;
  db_ = {};
  occ_ = {};
  occ_pool_ = {};
  trail_ = {};
  frozen_ = {};
  return out;
}

void Simplifier::extend_model(std::vector<bool>& model) const {
  for (std::size_t e = elim_stack_.size(); e-- > 0;) {
    const Var v = elim_stack_[e].v;
    const std::size_t begin = e == 0 ? 0 : elim_stack_[e - 1].end;
    bool value = false;
    bool satisfied = false;
    for (std::size_t k = begin; k < elim_stack_[e].end; ++k) {
      const Lit l = elim_lits_[k];
      if (l == kUndefLit) {  // end of one positive occurrence clause
        if (!satisfied) {
          value = true;
          break;
        }
        satisfied = false;
      } else if (!satisfied && l.var() != v && lit_true(l, model)) {
        satisfied = true;
      }
    }
    model[static_cast<std::size_t>(v)] = value;
  }
}

std::size_t Simplifier::memory_bytes() const {
  std::size_t bytes = db_.capacity() * sizeof(StagedClause);
  for (const StagedClause& sc : db_) bytes += sc.lits.capacity() * sizeof(Lit);
  bytes += occ_.capacity() * sizeof(OccSlot) +
           occ_pool_.capacity() * sizeof(std::uint32_t);
  return bytes;
}

// ---- PreprocessSolver ----------------------------------------------------

PreprocessSolver::PreprocessSolver(SolverIface& inner) : inner_(inner) {
  if (inner_.num_vars() != 0 || inner_.num_clauses() != 0) {
    throw std::invalid_argument(
        "PreprocessSolver: inner solver must start empty (ids must coincide)");
  }
}

Var PreprocessSolver::new_var() {
  return flushed_ ? inner_.new_var() : simp_.new_var();
}

int PreprocessSolver::num_vars() const {
  return flushed_ ? inner_.num_vars() : simp_.num_vars();
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
  if (simp_.simplified()) check_no_eliminated(clause);
  if (flushed_) {
    snapshot_model();  // the inner solver backtracks on a new clause
    return inner_.add_clause(std::move(clause));
  }
  simp_.add_clause(std::move(clause));
  return !simp_.contradiction();
}

void PreprocessSolver::flush() {
  if (flushed_) return;
  simp_.simplify(/*subsume=*/true);
  flushed_ = true;
  const Var n = simp_.num_vars();
  while (inner_.num_vars() < n) inner_.new_var();
  for (const auto& [v, phase] : pending_phases_) inner_.set_phase(v, phase);
  pending_phases_.clear();
  if (simp_.contradiction()) {
    inner_.add_clause(Clause{});
    simp_.take_clauses();
    return;
  }
  for (Var v = 0; v < n; ++v) {
    const LBool a = simp_.value(v);
    if (a != LBool::kUndef) {
      inner_.add_clause({Lit(v, a == LBool::kFalse)});
    } else if (simp_.is_eliminated(v)) {
      inner_.add_clause({neg(v)});  // pin; real value reconstructed on demand
    }
  }
  for (Clause& clause : simp_.take_clauses()) {
    inner_.add_clause(std::move(clause));
  }
}

LBool PreprocessSolver::solve(std::span<const Lit> assumptions) {
  if (!flushed_) flush();
  for (const Lit a : assumptions) {
    if (is_eliminated(a.var())) {
      throw std::logic_error(
          "PreprocessSolver::solve: assumption over an eliminated variable");
    }
  }
  model_ = Model::kNone;
  const LBool r = inner_.solve(assumptions);
  if (r == LBool::kTrue) {
    model_ = Model::kLive;
    model_vars_ = static_cast<std::size_t>(inner_.num_vars());
  }
  return r;
}

void PreprocessSolver::snapshot_model() {
  if (model_ != Model::kLive) return;
  model_values_ = inner_.model();
  model_values_.resize(model_vars_, false);
  model_ = Model::kSnapshot;
}

void PreprocessSolver::extend_model() const {
  if (model_ == Model::kExtended) return;
  if (model_ == Model::kLive) {
    model_values_ = inner_.model();
    model_values_.resize(model_vars_, false);
  }
  simp_.extend_model(model_values_);
  model_ = Model::kExtended;
}

bool PreprocessSolver::value_of(Var v) const {
  const auto i = static_cast<std::size_t>(v);
  if (model_ == Model::kNone || i >= model_vars_) return inner_.value_of(v);
  if (model_ != Model::kExtended && is_eliminated(v)) extend_model();
  if (model_ == Model::kLive) return inner_.value_of(v);
  return model_values_[i];
}

std::vector<bool> PreprocessSolver::model() const {
  if (model_ == Model::kNone) return inner_.model();
  extend_model();
  return model_values_;
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
  return flushed_ ? inner_.num_clauses() : simp_.num_clauses();
}

std::size_t PreprocessSolver::num_learnts() const {
  return inner_.num_learnts();
}

std::size_t PreprocessSolver::memory_bytes() const {
  return inner_.memory_bytes() + simp_.memory_bytes();
}

}  // namespace fl::sat

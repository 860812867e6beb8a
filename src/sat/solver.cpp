#include "sat/solver.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace fl::sat {

// Arena clause layout (32-bit words), relative to the clause's ref:
//   [-2][-1] activity as a double (learnt clauses only)
//   [0] size << 4 | learnt | core<<1 | condemned<<2 | relocated<<3
//   [1] LBD (learnt) / GC forwarding address (after relocation)
//   [2..] literals, one Lit::index() per word
// The learnt-only words sit in front of the header, so every clause's
// literals start at ref + 2 and reading one never tests the learnt bit;
// problem clauses carry just the 2-word header.
struct Solver::Cls {
  std::uint32_t* p;

  std::uint32_t size() const { return p[0] >> 4; }
  void shrink(std::uint32_t s) { p[0] = (s << 4) | (p[0] & 0xFu); }
  bool learnt() const { return (p[0] & 1u) != 0; }
  bool core() const { return (p[0] & 2u) != 0; }
  void set_core() { p[0] |= 2u; }
  bool condemned() const { return (p[0] & 4u) != 0; }
  void set_condemned() { p[0] |= 4u; }
  std::uint32_t lbd() const { return p[1]; }
  void set_lbd(std::uint32_t l) { p[1] = l; }
  double activity() const {
    double a;
    std::memcpy(&a, p - 2, sizeof(a));
    return a;
  }
  void set_activity(double a) { std::memcpy(p - 2, &a, sizeof(a)); }

  std::uint32_t* raw_lits() { return p + 2; }
  Lit lit(std::uint32_t i) const {
    return Lit::from_index(static_cast<std::int32_t>(p[2 + i]));
  }
  void set_lit(std::uint32_t i, Lit l) {
    p[2 + i] = static_cast<std::uint32_t>(l.index());
  }
  // Words in front of the header (the activity), and the whole footprint.
  std::uint32_t prefix() const { return learnt() ? 2 : 0; }
  std::uint32_t words() const { return prefix() + 2 + size(); }
};

namespace {

// Learnt clauses at or below this LBD form the core tier ("glue" clauses in
// Glucose terms): they connect decision levels so tightly that deleting
// them is nearly always a net loss, so reduce_db never touches them.
constexpr std::uint32_t kCoreLbd = 2;

constexpr std::uint32_t kLearntFlag = 1;
constexpr std::uint32_t kRelocatedFlag = 8;

// The search schedule: the classic MiniSat values.
constexpr double kVarDecay = 0.95;      // VSIDS activity decay per conflict
constexpr double kClauseDecay = 0.999;  // learnt-clause activity decay
constexpr int kRestartUnit = 128;       // Luby restart unit, in conflicts

// Luby restart sequence (scaled by kRestartUnit).
double luby(double y, int x) {
  int size, seq;
  for (size = 1, seq = 0; size < x + 1; seq++, size = 2 * size + 1) {
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    seq--;
    x = x % size;
  }
  double result = 1.0;
  for (int i = 0; i < seq; ++i) result *= y;
  return result;
}

// How many decisions may pass between wall-clock reads. Conflicts always
// force a read (analysis already paid far more than a clock call), so this
// only bounds overshoot on conflict-free decision streaks.
constexpr std::uint64_t kDeadlineCheckStride = 16;

// How many deadline-grade checkpoints may pass between full memory-usage
// walks (memory_bytes() visits every watch list, so it is priced like a
// small propagation, not like a clock read). Memory grows by at most a few
// clauses per conflict, so a 32-checkpoint-stale reading overshoots the
// budget by kilobytes, not megabytes.
constexpr std::uint32_t kMemoryCheckStride = 32;

}  // namespace

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kConflictBudget: return "conflict-budget";
    case StopReason::kDeadline: return "deadline";
    case StopReason::kInterrupt: return "interrupt";
    case StopReason::kOutOfMemory: return "out-of-memory";
  }
  return "?";
}

Solver::Solver(SolverConfig config) : config_(config) {
  arena_.push_back(0);  // sentinel: real refs are nonzero, kNullRef = 0
}
Solver::~Solver() = default;

Solver::Cls Solver::cls(ClauseRef r) { return Cls{arena_.data() + r}; }

Solver::ClauseRef Solver::alloc_clause(std::span<const Lit> lits,
                                       bool learnt) {
  const std::uint32_t prefix = learnt ? 2 : 0;
  const ClauseRef r = static_cast<ClauseRef>(arena_.size() + prefix);
  arena_.resize(arena_.size() + prefix + 2 + lits.size());
  Cls c{arena_.data() + r};
  c.p[0] = (static_cast<std::uint32_t>(lits.size()) << 4) |
           (learnt ? kLearntFlag : 0);
  c.p[1] = 0;
  if (learnt) c.set_activity(0.0);
  for (std::uint32_t i = 0; i < lits.size(); ++i) c.set_lit(i, lits[i]);
  return r;
}

void Solver::free_clause(ClauseRef r) { wasted_words_ += cls(r).words(); }

Var Solver::new_var() {
  const Var v = static_cast<Var>(level_.size());
  vals_.push_back(kLitUndef);
  vals_.push_back(kLitUndef);
  saved_phase_.push_back(0);
  level_.push_back(0);
  reason_.push_back(kNullRef);
  activity_.push_back(0.0);
  seen_.push_back(0);
  level_stamp_.push_back(0);
  heap_pos_.push_back(-1);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

bool Solver::value_of(Var v) const { return value(pos(v)) == kLitTrue; }

std::vector<bool> Solver::model() const {
  std::vector<bool> m(level_.size());
  for (std::size_t v = 0; v < m.size(); ++v) {
    m[v] = value(pos(static_cast<Var>(v))) == kLitTrue;
  }
  return m;
}

// ---------------------------------------------------------------- heap ----

void Solver::heap_insert(Var v) {
  if (heap_pos_[v] >= 0) return;
  heap_pos_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_up(heap_pos_[v]);
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_down(0);
  }
  return top;
}

void Solver::heap_up(int i) {
  const Var v = heap_[i];
  while (i > 0) {
    const int parent = (i - 1) >> 1;
    if (!heap_less(heap_[parent], v)) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

void Solver::heap_down(int i) {
  const Var v = heap_[i];
  const int n = static_cast<int>(heap_.size());
  while (true) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_less(heap_[child], heap_[child + 1])) ++child;
    if (!heap_less(v, heap_[child])) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

void Solver::bump_var(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[v] >= 0) heap_up(heap_pos_[v]);
}

void Solver::decay_var_activity() { var_inc_ /= kVarDecay; }

void Solver::bump_clause(Cls c) {
  c.set_activity(c.activity() + cla_inc_);
  if (c.activity() > 1e100) {
    for (const ClauseRef r : learnt_clauses_) {
      Cls lc = cls(r);
      lc.set_activity(lc.activity() * 1e-100);
    }
    cla_inc_ *= 1e-100;
  }
}

// ------------------------------------------------------------- clauses ----

void Solver::attach(ClauseRef r) {
  Cls c = cls(r);
  assert(c.size() >= 2);
  const Lit l0 = c.lit(0), l1 = c.lit(1);
  if (c.size() == 2) {
    watches_[(~l0).index()].bins.push_back(BinWatch{l1, r});
    watches_[(~l1).index()].bins.push_back(BinWatch{l0, r});
    return;
  }
  watches_[(~l0).index()].longs.push_back(Watcher{r, l1});
  watches_[(~l1).index()].longs.push_back(Watcher{r, l0});
}

void Solver::detach(ClauseRef r) {
  Cls c = cls(r);
  if (c.size() == 2) {
    for (const Lit w : {c.lit(0), c.lit(1)}) {
      auto& list = watches_[(~w).index()].bins;
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i].ref == r) {
          list[i] = list.back();
          list.pop_back();
          break;
        }
      }
    }
    return;
  }
  for (const Lit w : {c.lit(0), c.lit(1)}) {
    auto& list = watches_[(~w).index()].longs;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i].ref == r) {
        list[i] = list.back();
        list.pop_back();
        break;
      }
    }
  }
}

bool Solver::add_clause(Clause clause) {
  if (!ok_) return false;
  if (!trail_lim_.empty()) backtrack_to(0);

  std::sort(clause.begin(), clause.end());
  Lit prev = kUndefLit;
  std::size_t out = 0;
  for (const Lit l : clause) {
    assert(l.var() >= 0 && l.var() < num_vars());
    if (value(l) == kLitTrue || l == ~prev) return true;  // satisfied/taut
    if (value(l) != kLitFalse && l != prev) {
      prev = l;
      clause[out++] = l;
    }
  }
  clause.resize(out);

  if (clause.empty()) {
    ok_ = false;
    return false;
  }
  if (clause.size() == 1) {
    if (!enqueue(clause[0], kNullRef)) {
      ok_ = false;
      return false;
    }
    if (propagate() != kNullRef) {
      ok_ = false;
      return false;
    }
    return true;
  }
  const ClauseRef r = alloc_clause(clause, /*learnt=*/false);
  attach(r);
  problem_clauses_.push_back(r);
  ++num_problem_clauses_;
  return true;
}

// --------------------------------------------------------- propagation ----

bool Solver::enqueue(Lit l, ClauseRef reason) {
  const std::int8_t v = value(l);
  if (v != kLitUndef) return v == kLitTrue;
  vals_[l.index()] = kLitTrue;
  vals_[(~l).index()] = kLitFalse;
  level_[l.var()] = static_cast<int>(trail_lim_.size());
  reason_[l.var()] = reason;
  saved_phase_[l.var()] = l.negated() ? 0 : 1;
  trail_.push_back(l);
  return true;
}

Solver::ClauseRef Solver::propagate() {
  while (propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    ++stats_.propagations;
    WatchNode& wn = watches_[p.index()];

    // Binary implications first: a flat (implied literal, reason) list, so
    // the common case reads one assignment byte per entry and never touches
    // clause memory.
    for (const BinWatch& bw : wn.bins) {
      const std::int8_t v = value(bw.other);
      if (v == kLitFalse) {
        propagate_head_ = trail_.size();
        return bw.ref;
      }
      if (v == kLitUndef) {
        ++stats_.binary_propagations;
        enqueue(bw.other, bw.ref);
      }
    }

    // The walk holds raw pointers into p's list: a watch that moves lands
    // in the list of its new literal, which is not false and so not ~p,
    // so this list never reallocates under the walk.
    auto& ws = wn.longs;
    Watcher* i = ws.data();
    Watcher* j = i;
    Watcher* const end = i + ws.size();
    const Lit false_lit = ~p;
    while (i != end) {
      const Watcher w = *i;
      if (value(w.blocker) == kLitTrue) {
        *j++ = *i++;
        continue;
      }
      Cls c = cls(w.ref);
      std::uint32_t* lits = c.raw_lits();
      const auto lit_at = [&](std::uint32_t k) {
        return Lit::from_index(static_cast<std::int32_t>(lits[k]));
      };
      if (lit_at(0) == false_lit) std::swap(lits[0], lits[1]);
      assert(lit_at(1) == false_lit);
      ++i;
      const Lit first = lit_at(0);
      if (first != w.blocker && value(first) == kLitTrue) {
        *j++ = Watcher{w.ref, first};
        continue;
      }
      bool found_watch = false;
      const std::uint32_t size = c.size();
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value(lit_at(k)) != kLitFalse) {
          std::swap(lits[1], lits[k]);
          assert(lit_at(1) != false_lit);
          watches_[(~lit_at(1)).index()].longs.push_back(
              Watcher{w.ref, first});
          found_watch = true;
          break;
        }
      }
      if (found_watch) continue;
      // Clause is unit or conflicting under the current assignment.
      *j++ = Watcher{w.ref, first};
      if (value(first) == kLitFalse) {
        while (i != end) *j++ = *i++;
        ws.resize(static_cast<std::size_t>(j - ws.data()));
        propagate_head_ = trail_.size();
        return w.ref;
      }
      enqueue(first, w.ref);
    }
    ws.resize(static_cast<std::size_t>(j - ws.data()));
  }
  return kNullRef;
}

// ------------------------------------------------------------ analysis ----

// Literal block distance: number of distinct decision levels in the clause
// (Glucose's quality measure — low LBD means the clause glues few levels
// together and will propagate early and often). Only search levels count:
// search() opens one level per assumption, so levels 1..A of a solve under
// A assumptions hold nothing but the assumptions, and counting them would
// rank a clause by how many assumed literals it mentions (Audemard,
// Lagniez & Simon, SAT 2013). A clause that lies wholly on assumption
// levels counts as 1.
std::uint32_t Solver::compute_lbd(std::span<const Lit> lits) {
  const int assumption_levels = static_cast<int>(assumptions_.size());
  ++lbd_stamp_;
  std::uint32_t lbd = 0;
  for (const Lit l : lits) {
    const int lvl = level_[l.var()];
    if (lvl > assumption_levels && level_stamp_[lvl] != lbd_stamp_) {
      level_stamp_[lvl] = lbd_stamp_;
      ++lbd;
    }
  }
  return std::max<std::uint32_t>(lbd, 1);
}

void Solver::analyze(ClauseRef conflict, Clause& learnt,
                     int& backtrack_level) {
  learnt.clear();
  learnt.push_back(kUndefLit);  // placeholder for the asserting literal
  int path_count = 0;
  Lit p = kUndefLit;
  std::size_t idx = trail_.size();
  const int current_level = static_cast<int>(trail_lim_.size());
  const int assumption_levels = static_cast<int>(assumptions_.size());

  ClauseRef cr = conflict;
  do {
    assert(cr != kNullRef);
    Cls c = cls(cr);
    // LBD refresh on re-propagation: a clause that re-appears in conflict
    // analysis with fewer distinct levels than at learn time has proven
    // more valuable than its recorded tier suggests; promote it to core
    // once it reaches glue level. Fused into the literal walk below — the
    // level_ loads are shared with the seen/path bookkeeping, so the
    // refresh costs one stamp check per literal instead of a second pass.
    // Like compute_lbd, it counts only levels above the assumptions.
    const bool refresh = c.learnt() && c.lbd() > kCoreLbd;
    std::uint32_t lbd = 0;
    if (c.learnt()) bump_clause(c);
    if (refresh) {
      ++lbd_stamp_;
      if (p != kUndefLit && current_level > assumption_levels) {
        // The resolved-on literal is always at the current level.
        level_stamp_[current_level] = lbd_stamp_;
        lbd = 1;
      }
    }
    const std::uint32_t size = c.size();
    const std::uint32_t* lits = c.raw_lits();
    for (std::uint32_t li = 0; li < size; ++li) {
      const Lit q = Lit::from_index(static_cast<std::int32_t>(lits[li]));
      if (q == p) continue;
      const Var v = q.var();
      const int lvl = level_[v];
      if (refresh && lvl > assumption_levels &&
          level_stamp_[lvl] != lbd_stamp_) {
        level_stamp_[lvl] = lbd_stamp_;
        ++lbd;
      }
      if (seen_[v] == 0 && lvl > 0) {
        seen_[v] = 1;
        bump_var(v);
        if (lvl >= current_level) {
          ++path_count;
        } else {
          learnt.push_back(q);
        }
      }
    }
    if (refresh) lbd = std::max<std::uint32_t>(lbd, 1);
    if (refresh && lbd < c.lbd()) {
      c.set_lbd(lbd);
      if (lbd <= kCoreLbd && !c.core()) {
        c.set_core();
        assert(num_local_learnts_ > 0);
        --num_local_learnts_;
        ++stats_.promoted_clauses;
      }
    }
    while (seen_[trail_[idx - 1].var()] == 0) --idx;
    p = trail_[idx - 1];
    --idx;
    cr = reason_[p.var()];
    seen_[p.var()] = 0;
    --path_count;
  } while (path_count > 0);
  learnt[0] = ~p;

  // Conflict-clause minimization: drop literals implied by the rest of the
  // learnt clause through the implication graph.
  analyze_toclear_.assign(learnt.begin(), learnt.end());
  for (const Lit l : learnt) seen_[l.var()] = 1;
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    abstract_levels |= 1u << (level_[learnt[i].var()] & 31);
  }
  std::size_t out = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (reason_[learnt[i].var()] == kNullRef ||
        !lit_redundant(learnt[i], abstract_levels)) {
      learnt[out++] = learnt[i];
    }
  }
  learnt.resize(out);
  for (const Lit l : analyze_toclear_) seen_[l.var()] = 0;

  if (learnt.size() == 1) {
    backtrack_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (level_[learnt[i].var()] > level_[learnt[max_i].var()]) max_i = i;
    }
    std::swap(learnt[1], learnt[max_i]);
    backtrack_level = level_[learnt[1].var()];
  }
}

bool Solver::lit_redundant(Lit l, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const std::size_t toclear_base = analyze_toclear_.size();
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    assert(reason_[q.var()] != kNullRef);
    Cls c = cls(reason_[q.var()]);
    const std::uint32_t size = c.size();
    for (std::uint32_t li = 0; li < size; ++li) {
      const Lit r = c.lit(li);
      const Var v = r.var();
      if (v == q.var() || seen_[v] != 0 || level_[v] == 0) continue;
      if (reason_[v] != kNullRef &&
          ((1u << (level_[v] & 31)) & abstract_levels) != 0) {
        seen_[v] = 1;
        analyze_stack_.push_back(r);
        analyze_toclear_.push_back(r);
      } else {
        // Not redundant: undo the marks made during this probe.
        for (std::size_t k = toclear_base; k < analyze_toclear_.size(); ++k) {
          seen_[analyze_toclear_[k].var()] = 0;
        }
        analyze_toclear_.resize(toclear_base);
        return false;
      }
    }
  }
  return true;
}

void Solver::backtrack_to(int target_level) {
  if (static_cast<int>(trail_lim_.size()) <= target_level) return;
  const std::size_t bound = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i > bound; --i) {
    const Lit l = trail_[i - 1];
    const Var v = l.var();
    vals_[l.index()] = kLitUndef;
    vals_[(~l).index()] = kLitUndef;
    reason_[v] = kNullRef;
    heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(target_level);
  propagate_head_ = trail_.size();
}

Lit Solver::pick_branch_lit() {
  while (!heap_.empty()) {
    const Var v = heap_[0];
    heap_pop();
    if (value(pos(v)) == kLitUndef) {
      return Lit(v, saved_phase_[v] == 0);
    }
  }
  return kUndefLit;
}

// Records a freshly learnt (non-unit) clause: tier classification, stats,
// watch attachment, and the asserting enqueue.
void Solver::record_learnt(const Clause& learnt, std::uint32_t lbd) {
  const ClauseRef r = alloc_clause(learnt, /*learnt=*/true);
  Cls c = cls(r);
  c.set_lbd(lbd);
  if (learnt.size() == 2 || lbd <= kCoreLbd) c.set_core();
  attach(r);
  bump_clause(c);
  enqueue(learnt[0], r);
  if (!c.core()) ++num_local_learnts_;
  learnt_clauses_.push_back(r);
  ++stats_.learned_clauses;
  stats_.learned_literals += learnt.size();
  if (learnt.size() == 2) ++stats_.learned_binary;
  stats_.lbd_sum += lbd;
  if (lbd <= kCoreLbd) ++stats_.glue_learned;
  if (lbd > stats_.max_lbd) stats_.max_lbd = lbd;
}

void Solver::reduce_db() {
  // Only the local tier is reducible: core clauses (glue LBD, binaries,
  // promotions) are kept forever, and clauses locked as the reason of a
  // trail literal cannot be dropped. The halving target counts reducible
  // clauses only, so pinned reasons don't dilute the reduction.
  const auto locked = [&](ClauseRef r, Cls c) {
    const Lit l0 = c.lit(0);
    return reason_[l0.var()] == r && value(l0) == kLitTrue;
  };
  std::vector<ClauseRef> reducible;
  reducible.reserve(num_local_learnts_);
  for (const ClauseRef r : learnt_clauses_) {
    Cls c = cls(r);
    if (c.core() || locked(r, c)) continue;
    assert(c.size() > 2);
    reducible.push_back(r);
  }
  const std::size_t target = reducible.size() / 2;
  // Victims: highest LBD first, ties broken by lowest activity.
  std::sort(reducible.begin(), reducible.end(),
            [this](ClauseRef a, ClauseRef b) {
              const Cls ca{arena_.data() + a}, cb{arena_.data() + b};
              if (ca.lbd() != cb.lbd()) return ca.lbd() > cb.lbd();
              return ca.activity() < cb.activity();
            });
  for (std::size_t i = 0; i < target; ++i) cls(reducible[i]).set_condemned();

  // Batch watcher removal: one pass over the long watch lists beats a
  // per-clause detach (which re-searches a list per deletion) by orders of
  // magnitude when thousands of clauses go at once. Victims all have size
  // > 2, so the binary lists are untouched.
  if (target > 0) filter_condemned_watchers(/*bins_too=*/false);

  std::size_t out = 0, removed = 0;
  for (const ClauseRef r : learnt_clauses_) {
    if (cls(r).condemned()) {
      free_clause(r);
      ++removed;
    } else {
      learnt_clauses_[out++] = r;
    }
  }
  learnt_clauses_.resize(out);
  num_local_learnts_ -= removed;
  stats_.removed_clauses += removed;
  stats_.db_size_after_reduce = learnt_clauses_.size();
  max_learnts_ += max_learnts_ / 10;
  maybe_garbage_collect();
}

void Solver::filter_condemned_watchers(bool bins_too) {
  for (WatchNode& wn : watches_) {
    if (bins_too) {
      std::size_t out = 0;
      for (const BinWatch& bw : wn.bins) {
        if (!cls(bw.ref).condemned()) wn.bins[out++] = bw;
      }
      wn.bins.resize(out);
    }
    std::size_t out = 0;
    for (const Watcher& w : wn.longs) {
      if (!cls(w.ref).condemned()) wn.longs[out++] = w;
    }
    wn.longs.resize(out);
  }
}

// -------------------------------------------------------------- arena GC --

void Solver::relocate(ClauseRef& r, std::vector<std::uint32_t>& to) {
  if (r == kNullRef) return;
  std::uint32_t* p = arena_.data() + r;
  if ((p[0] & kRelocatedFlag) != 0) {
    r = p[1];  // already moved; header word 1 holds the forwarding address
    return;
  }
  const Cls c{p};
  const ClauseRef nr = static_cast<ClauseRef>(to.size() + c.prefix());
  to.insert(to.end(), p - c.prefix(), p + 2 + c.size());
  p[0] |= kRelocatedFlag;
  p[1] = nr;
  r = nr;
}

// Mark-and-copy compaction of the clause arena. Callers must be at a safe
// point: every live ClauseRef reachable from solver state is remapped here
// (clause DBs, trail reasons, watch lists), so no ref may be held across
// this call in a local variable.
void Solver::maybe_garbage_collect() {
  if (wasted_words_ * 5 < arena_.size()) return;  // < 20% waste: keep going
  std::vector<std::uint32_t> to;
  to.reserve(arena_.size() - wasted_words_);
  to.push_back(0);  // sentinel
  for (ClauseRef& r : problem_clauses_) relocate(r, to);
  for (ClauseRef& r : learnt_clauses_) relocate(r, to);
  for (const Lit l : trail_) relocate(reason_[l.var()], to);
  for (WatchNode& wn : watches_) {
    for (BinWatch& bw : wn.bins) relocate(bw.ref, to);
    for (Watcher& w : wn.longs) relocate(w.ref, to);
  }
  arena_ = std::move(to);
  wasted_words_ = 0;
}

// -------------------------------------------------------------- simplify --

void Solver::simplify() {
  if (!ok_) return;
  if (!trail_lim_.empty()) backtrack_to(0);
  if (propagate() != kNullRef) {
    ok_ = false;
    return;
  }
  if (trail_.size() == simplified_trail_) return;  // no new root facts
  simplified_trail_ = trail_.size();
  conflicts_at_simplify_ = stats_.conflicts;

  // Root assignments are permanent; their reasons are never dereferenced
  // again (analysis skips level 0). Null them so removing a satisfied
  // reason clause cannot leave a dangling ref behind.
  for (const Lit l : trail_) reason_[l.var()] = kNullRef;

  // Pass 1: mark satisfied clauses. Their watchers are removed in one
  // batch sweep below — per-clause detach would re-search a watch list per
  // deletion, which dominates simplify on attack-sized databases.
  std::size_t num_satisfied = 0;
  const auto mark = [&](const std::vector<ClauseRef>& db) {
    for (const ClauseRef r : db) {
      Cls c = cls(r);
      const std::uint32_t size = c.size();
      for (std::uint32_t k = 0; k < size; ++k) {
        if (value(c.lit(k)) == kLitTrue) {
          c.set_condemned();
          ++num_satisfied;
          break;
        }
      }
    }
  };
  mark(problem_clauses_);
  mark(learnt_clauses_);
  if (num_satisfied > 0) filter_condemned_watchers(/*bins_too=*/true);

  const auto clean = [&](std::vector<ClauseRef>& db, bool problem) {
    std::size_t out = 0;
    for (const ClauseRef r : db) {
      Cls c = cls(r);
      if (c.condemned()) {
        free_clause(r);
        ++stats_.simplify_removed_clauses;
        if (problem) {
          --num_problem_clauses_;
        } else if (!c.core()) {
          assert(num_local_learnts_ > 0);
          --num_local_learnts_;
        }
        continue;
      }
      const std::uint32_t size = c.size();
      // Strip falsified literals. Only positions >= 2 can be false here:
      // after full root propagation a false watched literal implies the
      // clause was satisfied (removed above) or unit (enqueued, hence
      // satisfied). A blocker-skip can leave a stale false watch; such a
      // clause is simply left unstripped this round.
      if (size > 2 && value(c.lit(0)) == kLitUndef &&
          value(c.lit(1)) == kLitUndef) {
        std::uint32_t w = 2;
        for (std::uint32_t k = 2; k < size; ++k) {
          if (value(c.lit(k)) != kLitFalse) {
            c.set_lit(w++, c.lit(k));
          } else {
            ++stats_.simplify_removed_literals;
          }
        }
        if (w != size) {
          if (w == 2) {
            detach(r);  // still registered as long: removes long watchers
            c.shrink(w);
            wasted_words_ += size - w;
            attach(r);  // size 2 now: joins the binary implication lists
            if (!problem && !c.core()) {
              c.set_core();  // binaries are never reduced
              assert(num_local_learnts_ > 0);
              --num_local_learnts_;
            }
          } else {
            c.shrink(w);
            wasted_words_ += size - w;
          }
        }
      }
      db[out++] = r;
    }
    db.resize(out);
  };
  clean(problem_clauses_, /*problem=*/true);
  clean(learnt_clauses_, /*problem=*/false);
  maybe_garbage_collect();
}

// ---------------------------------------------------------------- search --

std::size_t Solver::memory_bytes() const {
  std::size_t bytes = arena_.capacity() * sizeof(std::uint32_t);
  bytes += (problem_clauses_.capacity() + learnt_clauses_.capacity()) *
           sizeof(ClauseRef);
  bytes += watches_.capacity() * sizeof(WatchNode);
  for (const WatchNode& node : watches_) {
    bytes += node.bins.capacity() * sizeof(BinWatch) +
             node.longs.capacity() * sizeof(Watcher);
  }
  // Per-variable state and the trail.
  bytes += vals_.capacity() + saved_phase_.capacity() +
           level_.capacity() * sizeof(int) +
           reason_.capacity() * sizeof(ClauseRef) +
           activity_.capacity() * sizeof(double) + seen_.capacity() +
           level_stamp_.capacity() * sizeof(std::uint64_t) +
           heap_.capacity() * sizeof(Var) + heap_pos_.capacity() * sizeof(int);
  bytes += trail_.capacity() * sizeof(Lit) + trail_lim_.capacity() * sizeof(int);
  return bytes;
}

bool Solver::budget_exhausted(bool force_deadline_check) const {
  if (budget_hit_) return true;
  if (interrupt_ != nullptr && interrupt_->load(std::memory_order_relaxed)) {
    budget_hit_ = true;
    stop_reason_ = StopReason::kInterrupt;
    return true;
  }
  if (conflict_budget_ != 0 &&
      stats_.conflicts - conflicts_at_solve_ >= conflict_budget_) {
    budget_hit_ = true;
    stop_reason_ = StopReason::kConflictBudget;
    return true;
  }
  if (deadline_ || config_.memory_limit_mb > 0) {
    if (force_deadline_check || deadline_check_countdown_ == 0) {
      deadline_check_countdown_ = kDeadlineCheckStride;
      if (deadline_ && std::chrono::steady_clock::now() >= *deadline_) {
        budget_hit_ = true;
        stop_reason_ = StopReason::kDeadline;
        return true;
      }
      if (config_.memory_limit_mb > 0) {
        if (memory_check_countdown_ == 0) {
          memory_check_countdown_ = kMemoryCheckStride;
          last_memory_bytes_ = memory_bytes();
        } else {
          --memory_check_countdown_;
        }
        if (last_memory_bytes_ > config_.memory_limit_mb * 1024 * 1024) {
          budget_hit_ = true;
          stop_reason_ = StopReason::kOutOfMemory;
          return true;
        }
      }
    } else {
      --deadline_check_countdown_;
    }
  }
  return false;
}

LBool Solver::search() {
  const std::uint64_t restart_budget = static_cast<std::uint64_t>(
      luby(2.0, static_cast<int>(stats_.restarts)) * kRestartUnit);
  std::uint64_t conflicts_this_restart = 0;

  Clause learnt;
  while (true) {
    const ClauseRef conflict = propagate();
    if (conflict != kNullRef) {
      ++stats_.conflicts;
      ++conflicts_this_restart;
      if (trail_lim_.empty()) {
        ok_ = false;
        return LBool::kFalse;
      }
      int backtrack_level = 0;
      analyze(conflict, learnt, backtrack_level);
      // LBD is measured before backtracking, while every learnt literal
      // still carries its decision level.
      const std::uint32_t lbd = compute_lbd(learnt);
      backtrack_to(backtrack_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNullRef);
      } else {
        record_learnt(learnt, lbd);
      }
      decay_var_activity();
      cla_inc_ /= kClauseDecay;
      // Deadline is always checked on conflicts: conflict analysis is where
      // a solve used to overshoot, and a clock read is noise next to it.
      if (budget_exhausted(/*force_deadline_check=*/true)) {
        backtrack_to(0);
        return LBool::kUndef;
      }
    } else {
      if (budget_exhausted()) {
        backtrack_to(0);
        return LBool::kUndef;
      }
      if (conflicts_this_restart >= restart_budget) {
        ++stats_.restarts;
        backtrack_to(0);
        return LBool::kUndef;  // caller loops; keeps bookkeeping simple
      }
      if (learnt_clauses_.size() >= max_learnts_ + trail_.size()) {
        reduce_db();
      }
      Lit next = kUndefLit;
      while (trail_lim_.size() < assumptions_.size()) {
        const Lit a = assumptions_[trail_lim_.size()];
        if (value(a) == kLitTrue) {
          trail_lim_.push_back(trail_.size());
        } else if (value(a) == kLitFalse) {
          return LBool::kFalse;
        } else {
          next = a;
          break;
        }
      }
      if (next == kUndefLit) {
        next = pick_branch_lit();
        if (next == kUndefLit) return LBool::kTrue;
        ++stats_.decisions;
      }
      trail_lim_.push_back(trail_.size());
      enqueue(next, kNullRef);
    }
  }
}

LBool Solver::solve(std::span<const Lit> assumptions) {
  if (!ok_) return LBool::kFalse;
  assumptions_.assign(assumptions.begin(), assumptions.end());
  conflicts_at_solve_ = stats_.conflicts;
  budget_hit_ = false;
  stop_reason_ = StopReason::kNone;
  deadline_check_countdown_ = 0;
  memory_check_countdown_ = 0;
  max_learnts_ = std::max<std::size_t>(
      {max_learnts_, 2000, num_problem_clauses_ / 3});
  backtrack_to(0);
  if (propagate() != kNullRef) {
    ok_ = false;
    assumptions_.clear();
    return LBool::kFalse;
  }
  // Root-level cleanup of everything previous solves and the caller's
  // incremental clauses (DIP constraints, banned keys) made redundant.
  // Simplification is a full database scan, so the automatic call waits
  // until enough new root facts have accumulated to pay for it (explicit
  // simplify() calls scan whenever anything changed).
  if ((trail_.size() - simplified_trail_) * 100 >= num_problem_clauses_) {
    simplify();
  }
  if (!ok_) {
    assumptions_.clear();
    return LBool::kFalse;
  }
  LBool result = LBool::kUndef;
  while (result == LBool::kUndef) {
    result = search();
    if (!ok_) {
      result = LBool::kFalse;
      break;
    }
    if (result == LBool::kUndef && budget_exhausted()) break;
  }
  if (result != LBool::kTrue) backtrack_to(0);
  assumptions_.clear();
  stats_.core_learnts = learnt_clauses_.size() - num_local_learnts_;
  stats_.peak_memory_bytes =
      std::max<std::uint64_t>(stats_.peak_memory_bytes, memory_bytes());
  return result;
}

LBool solve_cnf(const Cnf& cnf, std::vector<bool>* model, SolverStats* stats) {
  Solver solver;
  for (int v = 0; v < cnf.num_vars; ++v) solver.new_var();
  for (const Clause& c : cnf.clauses) {
    if (!solver.add_clause(c)) {
      if (stats != nullptr) *stats = solver.stats();
      return LBool::kFalse;
    }
  }
  const LBool result = solver.solve();
  if (result == sat::LBool::kTrue && model != nullptr) *model = solver.model();
  if (stats != nullptr) *stats = solver.stats();
  return result;
}

}  // namespace fl::sat

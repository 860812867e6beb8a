#include "attacks/cycsat.h"

#include <limits>
#include <map>

#include "cnf/tseytin.h"
#include "netlist/structure.h"

namespace fl::attacks {

using cnf::NetLit;
using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;

namespace {

// Blocking condition of the edge source->consumer[pin] under a key copy:
// the edge is blocked iff the consumer is a MUX with a key-driven select
// that picks the *other* data input. Non-MUX edges and select pins are
// never blocked (const false).
NetLit edge_blocked(const Netlist& netlist, GateId consumer, std::size_t pin,
                    std::span<const sat::Var> key_vars) {
  const netlist::Gate& gate = netlist.gate(consumer);
  if (gate.type != GateType::kMux || pin == 0) return NetLit::constant(false);
  const GateId sel = gate.fanin[0];
  const int ki = netlist.key_index(sel);
  if (ki < 0) return NetLit::constant(false);
  // pin 1 ("a") is selected when sel == 0, so it is blocked when sel == 1.
  const bool blocked_when_true = pin == 1;
  return NetLit::of(sat::Lit(key_vars[ki], !blocked_when_true));
}

// Work budgets per key copy: beyond either, the builder degrades to an
// *under*-approximation of `open` (weaker NC conditions). That only costs
// attack speed, never soundness — the DIP loop bans stateful keys on
// repeated DIPs and the final key is functionally validated against the
// DIP history (see attacks/sat_attack.cpp). The step budget also bounds the
// DFS itself: path enumeration inside strongly-connected regions is
// exponential in the worst case even when most branches fold to constants.
constexpr std::size_t kNcTermBudget = 200'000;
constexpr std::size_t kNcStepBudget = 4'000'000;

class NcBuilder {
 public:
  NcBuilder(const Netlist& netlist, cnf::ClauseSink& sink,
            std::span<const sat::Var> key_vars, const BudgetGuard* budget)
      : netlist_(netlist), sink_(sink), key_vars_(key_vars), budget_(budget) {
    fanout_.resize(netlist.num_gates());
    for (GateId g = 0; g < netlist.num_gates(); ++g) {
      const netlist::Gate& gate = netlist.gate(g);
      for (std::size_t pin = 0; pin < gate.fanin.size(); ++pin) {
        fanout_[gate.fanin[pin]].push_back({g, pin});
      }
    }
  }

  // Condition "an open structural path exists from the output of `from`
  // back to the output of `target`" — exact over simple paths. DFS with
  // on-stack cycle cutting; a node's result is memoized only when its DFS
  // subtree never touched the active stack (Tarjan-lowlink gate), because
  // results that depended on the current path are not reusable. This keeps
  // the (acyclic bulk of the) host graph linear while nodes inside
  // strongly-connected regions are re-expanded per path, which is what
  // makes the condition exact — an under-approximated "open" here would
  // re-admit cycle-latching keys and trap the DIP loop in fake DIPs.
  NetLit open_path(GateId from, GateId target) {
    if (target != memo_target_) {
      memo_.clear();
      memo_target_ = target;
    }
    stack_depth_.assign(netlist_.num_gates(), -1);
    depth_ = 0;
    int lowlink = 0;
    return open_rec(from, target, lowlink);
  }

 private:
  // `lowlink` (out): smallest stack depth this subtree reached; INT_MAX if
  // it never touched the active stack.
  NetLit open_rec(GateId x, GateId target, int& lowlink) {
    lowlink = std::numeric_limits<int>::max();
    if (x == target) return NetLit::constant(true);
    if (terms_emitted_ > kNcTermBudget || ++steps_ > kNcStepBudget ||
        budget_exhausted()) {
      lowlink = 0;  // path-dependent: never memoized
      return NetLit::constant(false);
    }
    if (stack_depth_[x] >= 0) {
      lowlink = stack_depth_[x];
      return NetLit::constant(false);
    }
    const auto hit = memo_.find(x);
    if (hit != memo_.end()) return hit->second;
    stack_depth_[x] = depth_++;
    std::vector<NetLit> terms;
    int subtree_low = std::numeric_limits<int>::max();
    for (const auto& [g, pin] : fanout_[x]) {
      const NetLit blocked = edge_blocked(netlist_, g, pin, key_vars_);
      if (blocked.is_const() && blocked.const_value()) continue;
      int child_low = 0;
      const NetLit downstream = open_rec(g, target, child_low);
      subtree_low = std::min(subtree_low, child_low);
      if (downstream.is_const() && !downstream.const_value()) continue;
      terms.push_back(cnf::emit_and(sink_, {~blocked, downstream}));
      ++terms_emitted_;
    }
    --depth_;
    stack_depth_[x] = -1;
    const NetLit result = cnf::emit_or(sink_, std::move(terms));
    if (subtree_low >= depth_) {
      // Subtree never reached a *proper* ancestor (reaching x itself is
      // fine — paths revisiting x are non-simple regardless of context):
      // the result is path-independent and safe to cache. Reusing it in a
      // context where it would thread through an on-stack node only
      // over-approximates `open` toward closed *walks*, and a closed
      // unblocked walk always contains a closed unblocked simple cycle, so
      // the NC conditions stay exact on the key space.
      memo_.emplace(x, result);
      lowlink = std::numeric_limits<int>::max();
    } else {
      lowlink = subtree_low;
    }
    return result;
  }

  // Attack-level budget check, on a stride (exhausted() reads the clock)
  // and sticky once tripped: like the term/step budgets, the cut degrades
  // every remaining condition uniformly.
  bool budget_exhausted() {
    if (budget_cut_) return true;
    if (budget_ != nullptr && (steps_ & 2047) == 0 &&
        budget_->exhausted().has_value()) {
      budget_cut_ = true;
    }
    return budget_cut_;
  }

  const Netlist& netlist_;
  cnf::ClauseSink& sink_;
  std::span<const sat::Var> key_vars_;
  const BudgetGuard* budget_ = nullptr;
  bool budget_cut_ = false;
  std::vector<std::vector<std::pair<GateId, std::size_t>>> fanout_;
  std::map<GateId, NetLit> memo_;
  GateId memo_target_ = netlist::kNullGate;
  std::vector<int> stack_depth_;
  int depth_ = 0;
  std::size_t terms_emitted_ = 0;
  std::size_t steps_ = 0;
};

}  // namespace

int add_nc_conditions(const Netlist& locked, sat::SolverIface& solver,
                      std::span<const sat::Var> key1,
                      std::span<const sat::Var> key2,
                      const BudgetGuard* budget) {
  const std::vector<netlist::Edge> feedback = netlist::feedback_edges(locked);
  if (feedback.empty()) return 0;
  cnf::SolverSink sink(solver);
  for (const std::span<const sat::Var> keys : {key1, key2}) {
    NcBuilder builder(locked, sink, keys, budget);
    for (const netlist::Edge& e : feedback) {
      // Cycle through e is open iff the edge itself is unblocked and an
      // open path leads from the consumer back to the source. Admissible
      // keys must break it.
      const NetLit blk = edge_blocked(locked, e.gate, e.pin, keys);
      const NetLit open_back = builder.open_path(e.gate, e.source);
      cnf::assert_true(sink, cnf::emit_or(sink, {blk, ~open_back}));
    }
  }
  return static_cast<int>(feedback.size());
}

}  // namespace fl::attacks

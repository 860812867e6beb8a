#include "attacks/sat_attack.h"

#include <map>

#include "attacks/cycsat.h"
#include "netlist/simulator.h"

namespace fl::attacks {

namespace {

// True iff `key` is single-valued and oracle-consistent on `pattern`:
// relaxation simulation from the all-zeros and all-ones initial states must
// both converge to `response`. The correct key of any locked circuit breaks
// every structural cycle, so it always passes.
bool functionally_pins(const netlist::Netlist& locked,
                       const std::vector<bool>& key,
                       const std::vector<bool>& pattern,
                       const std::vector<bool>& response) {
  const std::vector<netlist::Word> in = netlist::broadcast(pattern);
  const std::vector<netlist::Word> kw = netlist::broadcast(key);
  for (const bool init_ones : {false, true}) {
    const netlist::CyclicSimResult sim =
        netlist::simulate_cyclic(locked, in, kw, 0, init_ones);
    if (sim.converged != ~netlist::Word{0}) return false;
    for (std::size_t o = 0; o < response.size(); ++o) {
      if (((sim.outputs[o] & 1) != 0) != response[o]) return false;
    }
  }
  return true;
}

// The classic single-DIP policy: one oracle query per DIP, I/O constraints
// on both key copies. On acyclic locks each response also updates the
// miter's candidate key, so the loop ends on key confirmation whenever a
// candidate survives to the last solve. On cyclic locks the DIP model can
// carry stateful (multi-valued) keys that dodge the constraint copies
// (BeSAT's observation), so there is no candidate: repeated DIPs trigger key
// bans and extracted keys are functionally validated against the whole DIP
// history.
class SingleDipPolicy final : public DipPolicy {
 public:
  SingleDipPolicy(const netlist::Netlist& locked, const Oracle& oracle)
      : locked_(locked), oracle_(oracle), cyclic_(locked.is_cyclic()) {}

  LoopAction on_dip(MiterContext& ctx, const BudgetGuard&,
                    const std::vector<bool>& pattern,
                    AttackResult& result) override {
    const auto [entry, fresh] = dips_.try_emplace(pattern);
    if (fresh) entry->second = oracle_.query(pattern);
    const std::vector<bool>& response = entry->second;
    if (!fresh) {
      // A repeated DIP means the I/O constraints did not prune this key
      // pair. Ban every involved key that is not functionally pinned to the
      // oracle on this pattern; the correct key is always single-valued and
      // oracle-consistent, so it is never banned. The response is the one
      // stored with the DIP: the oracle is asked once per pattern.
      //
      // Read every copy's key before the first ban: adding a clause
      // backtracks the solver to the root, and the model goes with it.
      std::vector<std::vector<bool>> keys;
      for (std::size_t k = 0; k < ctx.num_key_copies(); ++k) {
        keys.push_back(ctx.extract_key(ctx.key_copy(k)));
      }
      bool banned_any = false;
      for (std::size_t k = 0; k < keys.size(); ++k) {
        if (!functionally_pins(locked_, keys[k], pattern, response)) {
          ctx.ban_key(ctx.key_copy(k), keys[k]);
          banned_any = true;
          ++result.banned_keys;
        }
      }
      if (!banned_any) {
        // Should be unreachable (a repeat requires a non-functional copy);
        // ban the second key to guarantee progress — a key that is
        // functionally pinned here but re-selected is stateful elsewhere.
        ctx.ban_key(ctx.key_copy(1), keys[1]);
        ++result.banned_keys;
      }
      return LoopAction::kRetry;
    }
    if (!cyclic_) ctx.update_candidate(response);
    // Both key copies must reproduce the oracle on this pattern.
    ctx.constrain_io(pattern, response);
    return LoopAction::kContinue;
  }

  LoopAction on_no_dip(MiterContext& ctx, const BudgetGuard& budget,
                       AttackResult& result) override {
    const LoopAction base = DipPolicy::on_no_dip(ctx, budget, result);
    if (cyclic_ && base == LoopAction::kDone &&
        result.status == AttackStatus::kSuccess) {
      // The CNF may still admit stateful keys: validate the extracted key
      // functionally against every observed DIP; reject-and-ban until a
      // functional key (the correct key always qualifies) survives.
      for (const auto& [pattern, response] : dips_) {
        if (!functionally_pins(locked_, result.key, pattern, response)) {
          ctx.ban_key(ctx.key_copy(0), result.key);
          ++result.banned_keys;
          result.key.clear();
          return LoopAction::kRetry;
        }
      }
    }
    return base;
  }

 private:
  const netlist::Netlist& locked_;
  const Oracle& oracle_;
  const bool cyclic_;
  std::map<std::vector<bool>, std::vector<bool>> dips_;  // DIP -> response
};

// The single-DIP loop, with CycSAT's no-cycle conditions when `nc`.
AttackResult single_dip_attack(const netlist::Netlist& locked,
                               const Oracle& oracle,
                               const AttackOptions& options, bool nc) {
  const BudgetGuard budget(options);
  MiterContext ctx(locked, MiterContext::double_key(), options);
  if (nc) {
    add_nc_conditions(locked, ctx.solver(), ctx.key_copy(0), ctx.key_copy(1),
                      &budget);
  }
  SingleDipPolicy policy(locked, oracle);
  return DipLoop(oracle, options, budget, nc ? "cycsat" : "sat")
      .run(ctx, policy);
}

}  // namespace

RunResult sat_attack(const netlist::Netlist& locked, const Oracle& oracle,
                     const AttackOptions& options) {
  return {"sat", single_dip_attack(locked, oracle, options, false), {}};
}

RunResult cycsat_attack(const netlist::Netlist& locked, const Oracle& oracle,
                        const AttackOptions& options) {
  return {"cycsat", single_dip_attack(locked, oracle, options, true), {}};
}

}  // namespace fl::attacks

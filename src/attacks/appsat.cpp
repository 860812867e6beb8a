#include "attacks/appsat.h"

#include <bit>
#include <random>

#include "attacks/cycsat.h"
#include "netlist/simulator.h"

namespace fl::attacks {

using netlist::Word;

namespace {

constexpr std::uint64_t kSettleEvery = 4;  // DIP iterations between checks
constexpr double kErrorThreshold = 0.005;  // settle at or below this error
constexpr std::size_t kRoundsPerCheck = 8;  // 64-pattern rounds per estimate

// The AppSAT policy: the plain single-DIP step, interleaved with
// settlement checks that may end the attack early on an approximate key.
class AppSatPolicy final : public DipPolicy {
 public:
  AppSatPolicy(const netlist::Netlist& locked, const Oracle& oracle)
      : locked_(locked), oracle_(oracle), rng_(0xA99547ull) {}

  double estimated_error() const { return estimated_error_; }

  LoopAction on_dip(MiterContext& ctx, const BudgetGuard&,
                    const std::vector<bool>& pattern, AttackResult&) override {
    ctx.constrain_io(pattern, oracle_.query(pattern));
    return LoopAction::kContinue;
  }

  LoopAction after_iteration(MiterContext& ctx, const BudgetGuard& budget,
                             AttackResult& result) override {
    if (result.iterations % kSettleEvery != 0) return LoopAction::kContinue;
    budget.arm(ctx.solver());
    const sat::LBool settled = ctx.solver().solve();
    if (settled == sat::LBool::kUndef) {
      result.status = budget.undef_status(ctx.solver());
      return LoopAction::kDone;
    }
    if (settled == sat::LBool::kFalse) {
      result.status = AttackStatus::kKeySpaceEmpty;
      return LoopAction::kDone;
    }
    const std::vector<bool> candidate = ctx.extract_key();
    const double error = estimate_error(ctx, candidate);
    if (error <= kErrorThreshold) {
      result.key = candidate;
      result.status = AttackStatus::kApproximate;
      estimated_error_ = error;
      return LoopAction::kDone;
    }
    return LoopAction::kContinue;
  }

  LoopAction on_no_dip(MiterContext& ctx, const BudgetGuard& budget,
                       AttackResult& result) override {
    const LoopAction base = DipPolicy::on_no_dip(ctx, budget, result);
    if (base == LoopAction::kDone &&
        result.status == AttackStatus::kSuccess) {
      // Exact endgame: no DIP remains, the key is provably correct — the
      // estimate only reports its (sampled) residual error.
      estimated_error_ = estimate_error(ctx, result.key);
    }
    return base;
  }

 private:
  // Estimates the error of `key` on kRoundsPerCheck x 64 random queries:
  // one oracle batch and one simulation of the locked netlist, in which
  // lanes that do not settle count as wrong on every output. The first
  // failing pattern of each failing round is fed back as an I/O constraint
  // (query reinforcement), all in one batch, so cone-mode encoding sweeps
  // the key-free region for all of them in a single bit-parallel pass.
  double estimate_error(MiterContext& ctx, const std::vector<bool>& key) {
    const std::size_t n_in = locked_.num_inputs();
    const std::size_t n_out = locked_.num_outputs();
    constexpr std::size_t rounds = kRoundsPerCheck;
    // Net-major matrix, one word (column) per round, drawn round by round.
    std::vector<Word> inputs(n_in * rounds);
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < n_in; ++i) inputs[i * rounds + r] = rng_();
    }
    std::vector<Word> golden(n_out * rounds);
    oracle_.query_batch(inputs, rounds, rounds * 64, golden);
    const netlist::SimResult got = netlist::simulate(
        locked_, inputs, netlist::broadcast(key), rounds);
    std::uint64_t wrong_bits = 0, total_bits = 0;
    std::vector<std::vector<bool>> patterns, responses;
    for (std::size_t r = 0; r < rounds; ++r) {
      Word any_diff = 0;
      for (std::size_t o = 0; o < n_out; ++o) {
        const Word diff =
            (golden[o * rounds + r] ^ got.outputs[o * rounds + r]) |
            ~got.converged[r];
        any_diff |= diff;
        wrong_bits += std::popcount(diff);
        total_bits += 64;
      }
      if (any_diff != 0) {
        const int bit = std::countr_zero(any_diff);
        std::vector<bool> pattern(n_in);
        for (std::size_t i = 0; i < n_in; ++i) {
          pattern[i] = ((inputs[i * rounds + r] >> bit) & 1) != 0;
        }
        std::vector<bool> response(n_out);
        for (std::size_t o = 0; o < n_out; ++o) {
          response[o] = ((golden[o * rounds + r] >> bit) & 1) != 0;
        }
        patterns.push_back(std::move(pattern));
        responses.push_back(std::move(response));
      }
    }
    ctx.constrain_io_batch(patterns, responses);
    return total_bits == 0 ? 0.0
                           : static_cast<double>(wrong_bits) / total_bits;
  }

  const netlist::Netlist& locked_;
  const Oracle& oracle_;
  std::mt19937_64 rng_;
  double estimated_error_ = 1.0;
};

}  // namespace

RunResult appsat_attack(const netlist::Netlist& locked, const Oracle& oracle,
                        const AttackOptions& options) {
  const BudgetGuard budget(options);
  MiterContext ctx(locked, MiterContext::double_key(), options);
  if (locked.is_cyclic()) {
    // The paper runs AppSAT on top of CycSAT for cyclic Full-Lock.
    add_nc_conditions(locked, ctx.solver(), ctx.key_copy(0), ctx.key_copy(1),
                      &budget);
  }
  AppSatPolicy policy(locked, oracle);
  RunResult run{"appsat",
                DipLoop(oracle, options, budget, "appsat").run(ctx, policy),
                {}};
  run.detail.field("estimated_error",
                   ctx.trivially_equal() ? 0.0 : policy.estimated_error());
  return run;
}

}  // namespace fl::attacks

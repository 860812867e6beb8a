// Lock a benchmark circuit with a chosen scheme and run the attack suite.
//
//   $ ./example_lock_and_attack [circuit] [scheme] [timeout_s]
//     circuit: c432 c499 c880 c1355 c1908 c2670 c3540 c5315 c7552
//              apex2 apex4 i4 i7          (default c432)
//     scheme:  full-lock rll sarlock antisat lut-lock cross-lock
//              full-lock-cyclic          (default full-lock)
//     timeout: SAT/CycSAT attack budget in seconds (default 10)
#include <cstdio>
#include <stdexcept>
#include <string>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "attacks/removal.h"
#include "attacks/sensitization.h"
#include "attacks/sps.h"
#include "core/full_lock.h"
#include "core/verify.h"
#include "locking/antisat.h"
#include "locking/crosslock.h"
#include "locking/lutlock.h"
#include "locking/rll.h"
#include "locking/sarlock.h"
#include "netlist/profiles.h"
#include "runtime/jsonl.h"
#include "runtime/runner.h"

using namespace fl;

namespace {

core::LockedCircuit lock_circuit(const std::string& scheme,
                         const netlist::Netlist& original) {
  if (scheme == "rll") {
    lock::RllConfig c;
    c.num_keys = 32;
    return lock::rll_lock(original, c);
  }
  if (scheme == "sarlock") {
    lock::SarLockConfig c;
    c.num_keys = 12;
    return lock::sarlock_lock(original, c);
  }
  if (scheme == "antisat") {
    lock::AntiSatConfig c;
    c.block_inputs = 12;
    return lock::antisat_lock(original, c);
  }
  if (scheme == "lut-lock") {
    lock::LutLockConfig c;
    c.num_luts = 16;
    return lock::lutlock_lock(original, c);
  }
  if (scheme == "cross-lock") {
    lock::CrossLockConfig c;
    c.num_sources = 16;
    c.num_destinations = 20;
    return lock::crosslock_lock(original, c);
  }
  const core::CycleMode mode = scheme == "full-lock-cyclic"
                                   ? core::CycleMode::kForce
                                   : core::CycleMode::kAvoid;
  return core::full_lock(
      original, core::FullLockConfig::with_plrs(
                    {16}, core::ClnTopology::kBanyanNonBlocking, mode));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string circuit = argc > 1 ? argv[1] : "c432";
  const std::string scheme = argc > 2 ? argv[2] : "full-lock";
  double timeout = 10.0;
  try {
    if (argc > 3) timeout = runtime::parse_seconds_flag("timeout_s", argv[3]);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "lock_and_attack: %s\n", e.what());
    return 2;
  }

  const netlist::Netlist original = netlist::make_circuit(circuit, 1);
  std::printf("circuit %s: %zu gates, %zu/%zu IO\n", circuit.c_str(),
              original.num_logic_gates(), original.num_inputs(),
              original.num_outputs());

  const core::LockedCircuit locked = lock_circuit(scheme, original);
  const bool cyclic = locked.netlist.is_cyclic();
  std::printf("scheme %s: %zu key bits, locked netlist %zu gates%s\n",
              locked.scheme.c_str(), locked.key_bits(),
              locked.netlist.num_logic_gates(), cyclic ? " (cyclic)" : "");
  std::printf("correct key: %s\n",
              core::to_string(core::check_key(original, locked.netlist,
                                              locked.correct_key)));

  const core::CorruptionStats corruption =
      core::output_corruption(original, locked, 24, 4, 5);
  std::printf("wrong-key corruption: mean %.2f%% (min %.2f%%, max %.2f%%)\n",
              corruption.mean_error_rate * 100,
              corruption.min_error_rate * 100,
              corruption.max_error_rate * 100);

  const attacks::Oracle oracle(original);
  attacks::AttackOptions options;
  options.timeout_s = timeout;

  // SAT attack ("auto" runs CycSAT when the lock is cyclic).
  const attacks::RunResult run =
      attacks::run("auto", locked.netlist, oracle, options);
  const attacks::AttackResult& sat = run.result;
  std::printf("%s attack: %s, %llu iterations, %.2f s", run.attack.c_str(),
              to_string(sat.status),
              static_cast<unsigned long long>(sat.iterations), sat.seconds);
  if (sat.status == attacks::AttackStatus::kSuccess) {
    std::printf(", key %s",
                core::to_string(
                    core::check_key(original, locked.netlist, sat.key)));
  }
  std::printf("\n");

  // AppSAT.
  attacks::RunResult approx =
      attacks::run("appsat", locked.netlist, oracle, options);
  std::printf("AppSAT: %s, est. error %.4f, %llu iterations\n",
              to_string(approx.result.status),
              runtime::json_double_field(approx.detail.str(), "estimated_error")
                  .value_or(1.0),
              static_cast<unsigned long long>(approx.result.iterations));

  // Removal (only meaningful for interconnect locks with routing hints).
  if (!locked.routing_blocks.empty()) {
    const attacks::RemovalResult removal =
        attacks::removal_attack(locked, original);
    std::printf("removal attack: bypassed %d block(s), error %.2f%% -> %s\n",
                removal.blocks_bypassed, removal.error_rate * 100,
                removal.exact ? "BROKEN" : "resisted");
  }

  // Double DIP and key sensitization apply to acyclic locks only.
  if (!cyclic) {
    attacks::RunResult dd =
        attacks::run("double-dip", locked.netlist, oracle, options);
    std::printf("DoubleDIP: %s, %llu 2-DIP + %lld fallback queries\n",
                to_string(dd.result.status),
                static_cast<unsigned long long>(dd.result.iterations),
                runtime::json_int_field(dd.detail.str(), "fallback_iterations")
                    .value_or(0));

    attacks::SensitizationOptions sens_options;
    sens_options.timeout_s = timeout;
    const attacks::SensitizationResult sens =
        attacks::sensitization_attack(locked.netlist, oracle, sens_options);
    std::printf("sensitization: %d/%zu key bits recovered\n",
                sens.num_resolved, locked.key_bits());
  }

  // SPS.
  const attacks::SpsReport sps = attacks::sps_attack(locked.netlist, 3);
  std::printf("SPS: max skew %.3f over key-dependent nets\n", sps.max_skew);

  std::printf("oracle queries consumed: %llu\n",
              static_cast<unsigned long long>(oracle.num_queries()));
  return 0;
}

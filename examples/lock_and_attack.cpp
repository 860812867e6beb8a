// Lock a benchmark circuit with a chosen scheme and run the attack suite.
//
//   $ ./example_lock_and_attack [circuit] [scheme] [timeout_s]
//     circuit: c432 c499 c880 c1355 c1908 c2670 c3540 c5315 c7552
//              apex2 apex4 i4 i7          (default c432)
//     scheme:  full-lock rll sarlock antisat lut-lock cross-lock
//              full-lock-cyclic          (default full-lock)
//     timeout: SAT/CycSAT attack budget in seconds (default 10)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "attacks/appsat.h"
#include "attacks/double_dip.h"
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
  const double timeout = argc > 3 ? std::atof(argv[3]) : 10.0;

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
  const attacks::RunResult run = attacks::run("auto", locked, oracle, options);
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
  attacks::AppSatOptions app;
  app.base.timeout_s = timeout;
  const attacks::AppSatResult approx =
      attacks::AppSat(app).run(locked, oracle);
  std::printf("AppSAT: %s%s, est. error %.4f, %llu iterations\n",
              to_string(approx.status),
              approx.approximate ? " (approximate settle)" : "",
              approx.estimated_error,
              static_cast<unsigned long long>(approx.iterations));

  // Removal (only meaningful for interconnect locks with routing hints).
  if (!locked.routing_blocks.empty()) {
    const attacks::RemovalResult removal =
        attacks::removal_attack(locked, oracle);
    std::printf("removal attack: bypassed %d block(s), error %.2f%% -> %s\n",
                removal.blocks_bypassed, removal.error_rate * 100,
                removal.exact ? "BROKEN" : "resisted");
  }

  // Double DIP and key sensitization apply to acyclic locks only.
  if (!cyclic) {
    attacks::AttackOptions dd_options;
    dd_options.timeout_s = timeout;
    const attacks::DoubleDipResult dd =
        attacks::DoubleDip(dd_options).run(locked, oracle);
    std::printf("DoubleDIP: %s, %llu 2-DIP + %llu fallback queries\n",
                to_string(dd.status),
                static_cast<unsigned long long>(dd.iterations),
                static_cast<unsigned long long>(dd.fallback_iterations));

    attacks::SensitizationOptions sens_options;
    sens_options.timeout_s = timeout;
    const attacks::SensitizationResult sens =
        attacks::sensitization_attack(locked, oracle, sens_options);
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

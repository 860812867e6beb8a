// Quickstart: lock a small circuit with Full-Lock, verify the correct key
// unlocks it, measure wrong-key corruption, and run the SAT attack.
//
//   $ ./example_quickstart
#include <cstdio>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "core/full_lock.h"
#include "core/verify.h"
#include "netlist/bench_io.h"
#include "netlist/profiles.h"

int main() {
  using namespace fl;

  // 1. A circuit to protect: the classic ISCAS-85 c17.
  const netlist::Netlist original = netlist::make_c17();
  std::printf("original: %zu inputs, %zu outputs, %zu gates\n",
              original.num_inputs(), original.num_outputs(),
              original.num_logic_gates());

  // 2. Lock it with one 4x4 PLR (CLN + inverters + LUT twisting).
  core::FullLockConfig config = core::FullLockConfig::with_plrs({4});
  config.seed = 42;
  core::FullLockReport report;
  const core::LockedCircuit locked = core::full_lock(original, config, &report);
  std::printf("locked:   %zu key bits, %d PLR(s), %d LUT(s), %d negated\n",
              locked.key_bits(), report.num_plrs, report.num_luts,
              report.num_negated_drivers);

  // 3. The correct key restores the function (an equivalence proof).
  std::printf("correct key: %s\n",
              core::to_string(core::check_key(original, locked.netlist,
                                              locked.correct_key)));

  // 4. Wrong keys corrupt the outputs heavily (unlike point-function locks).
  const core::CorruptionStats corruption =
      core::output_corruption(original, locked, /*num_keys=*/32,
                              /*rounds_per_key=*/4, /*seed=*/7);
  std::printf("wrong-key corruption: mean %.1f%% of output bits\n",
              corruption.mean_error_rate * 100.0);

  // 5. Attack it: oracle-guided SAT attack (small CLN -> breaks quickly).
  const attacks::Oracle oracle(original);
  attacks::AttackOptions options;
  options.timeout_s = 30.0;
  const attacks::AttackResult attack =
      attacks::run("sat", locked.netlist, oracle, options).result;
  std::printf("SAT attack: %s after %llu iterations, %.3f s\n",
              attacks::to_string(attack.status),
              static_cast<unsigned long long>(attack.iterations),
              attack.seconds);
  if (attack.status == attacks::AttackStatus::kSuccess) {
    std::printf("recovered key: %s\n",
                core::to_string(
                    core::check_key(original, locked.netlist, attack.key)));
  }

  // 6. Export the locked netlist.
  std::printf("\n--- locked netlist (.bench) ---\n%s",
              netlist::write_bench_string(locked.netlist).c_str());
  return 0;
}

// Designer's view: sweep CLN topology and size on a host circuit and chart
// the overhead-vs-resilience trade-off that drives Table 3 / Table 5.
//
//   $ ./example_design_space [circuit] [timeout_s]
#include <cstdio>
#include <stdexcept>
#include <string>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "core/full_lock.h"
#include "core/verify.h"
#include "netlist/profiles.h"
#include "ppa/estimator.h"
#include "runtime/runner.h"

using namespace fl;

int main(int argc, char** argv) {
  const std::string circuit = argc > 1 ? argv[1] : "c880";
  double timeout = 5.0;
  try {
    if (argc > 2) timeout = runtime::parse_seconds_flag("timeout_s", argv[2]);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "design_space: %s\n", e.what());
    return 2;
  }
  const netlist::Netlist original = netlist::make_circuit(circuit, 1);
  const ppa::PpaReport base = ppa::estimate_ppa(original);
  std::printf("host: %s, area %.1f um2, delay %.3f ns, timeout %.1f s\n\n",
              circuit.c_str(), base.area_um2, base.critical_delay_ns, timeout);

  std::printf("%-14s%-6s%-8s%-9s%-9s%-10s%-12s%-10s\n", "topology", "N",
              "keys", "area+%", "delay+%", "corrupt%", "attack", "verdict");
  for (const core::ClnTopology topo :
       {core::ClnTopology::kShuffleBlocking,
        core::ClnTopology::kBanyanNonBlocking}) {
    for (const int n : {4, 8, 16, 32}) {
      core::FullLockConfig config = core::FullLockConfig::with_plrs(
          {n}, topo, core::CycleMode::kAvoid);
      config.seed = 3;
      const core::LockedCircuit locked = core::full_lock(original, config);
      const ppa::PpaReport ppa_locked = ppa::estimate_ppa(locked.netlist);
      const core::CorruptionStats corruption =
          core::output_corruption(original, locked, 12, 4, 2);

      const attacks::Oracle oracle(original);
      attacks::AttackOptions options;
      options.timeout_s = timeout;
      const attacks::AttackResult attack =
          attacks::run("sat", locked.netlist, oracle, options).result;
      char attack_text[32];
      if (attack.status == attacks::AttackStatus::kSuccess) {
        std::snprintf(attack_text, sizeof(attack_text), "%.2fs",
                      attack.seconds);
      } else {
        std::snprintf(attack_text, sizeof(attack_text), "TO");
      }
      std::printf("%-14s%-6d%-8zu%-9.1f%-9.1f%-10.2f%-12s%-10s\n",
                  topo == core::ClnTopology::kShuffleBlocking ? "shuffle"
                                                              : "LOG(N,..)",
                  n, locked.key_bits(),
                  (ppa_locked.area_um2 / base.area_um2 - 1.0) * 100.0,
                  (ppa_locked.critical_delay_ns / base.critical_delay_ns -
                   1.0) * 100.0,
                  corruption.mean_error_rate * 100.0, attack_text,
                  attack.status == attacks::AttackStatus::kSuccess
                      ? "broken"
                      : "resilient");
    }
  }
  std::printf("\nReading: pick the smallest non-blocking CLN whose attack "
              "column says TO —\nthe paper's recommendation "
              "(LOG(N, log2N-2, 1)) reaches resilience at a\nfraction of "
              "the blocking network's overhead.\n");
  return 0;
}

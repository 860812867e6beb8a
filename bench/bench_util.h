// Shared helpers for the paper-reproduction bench binaries.
//
// Environment knobs (all benches):
//   FULLLOCK_TIMEOUT_S  attack timeout in seconds (default 10; the paper
//                       used 2e6 s on a Xeon E5-2670 — see DESIGN.md §2 for
//                       the scaling rationale)
//   FULLLOCK_QUICK      if set, shrink sweeps for smoke-testing
//   FULLLOCK_SEED       base seed the per-cell seeds are derived from
//   FL_JOBS             worker threads for sweep grids (flag: --jobs N)
//   FL_JSONL            JSONL result file (flag: --jsonl PATH)
//
// Numeric knobs are parsed strictly (runtime::parse_seconds_flag /
// parse_int_flag): junk, a negative timeout or an out-of-range integer
// throws std::invalid_argument naming the variable. Each driver reads them
// once in main, before any cell runs, so a bad value is a usage error and
// not a failed cell.
//
// Every driver attacks through attacks::run (attacks/registry.h). The
// attack sweeps (Tables 2 and 4) are cell lists on attacks::run_sweep
// (attacks/sweep.h), which writes their records, --trace file and
// checkpoint as it does for the CLI sweep and the serve daemon.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "runtime/runner.h"

namespace fl::bench {

inline double env_seconds(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? runtime::parse_seconds_flag(name, v) : fallback;
}

inline long long env_int(const char* name, long long fallback,
                         long long min_value, long long max_value) {
  const char* v = std::getenv(name);
  return v != nullptr ? runtime::parse_int_flag(name, v, min_value, max_value)
                      : fallback;
}

inline bool env_flag(const char* name) { return std::getenv(name) != nullptr; }

// The runner flags of a grid driver (runtime::parse_runner_args). A grid
// driver takes no other argument: anything left over (a misspelt or
// removed flag) throws std::invalid_argument naming the first one.
inline runtime::RunnerArgs grid_runner_args(int argc, char** argv) {
  runtime::RunnerArgs args = runtime::parse_runner_args(argc, argv);
  if (argc > 1) {
    throw std::invalid_argument("unknown argument '" + std::string(argv[1]) +
                                "'");
  }
  return args;
}

inline double attack_timeout_s() {
  return env_seconds("FULLLOCK_TIMEOUT_S", 10.0);
}
inline bool quick_mode() { return env_flag("FULLLOCK_QUICK"); }
inline std::uint64_t base_seed(std::uint64_t fallback) {
  return static_cast<std::uint64_t>(env_int(
      "FULLLOCK_SEED", static_cast<long long>(fallback), 0, 1LL << 62));
}

// N-wire identity circuit (the Table 2 harness: a CLN locked over plain
// wires, so the oracle is the identity function).
inline netlist::Netlist identity_circuit(int n) {
  netlist::Netlist net("identity" + std::to_string(n));
  for (int i = 0; i < n; ++i) net.add_input("x" + std::to_string(i));
  for (int i = 0; i < n; ++i) {
    const netlist::GateId b =
        net.add_gate(netlist::GateType::kBuf, {static_cast<netlist::GateId>(i)});
    net.mark_output(b, "y" + std::to_string(i));
  }
  return net;
}

// The q-quantile (0 <= q <= 1) of ascending, non-empty `sorted`, linearly
// interpolated between neighbours: Python's statistics.quantiles with
// method="inclusive", as bench/ab_keybench.py computes its quartiles.
inline double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[lo + 1] - sorted[lo]);
}

// "TO" rendering used by the paper's tables.
inline std::string fmt_time_or_to(bool timed_out, double seconds) {
  if (timed_out) return "TO";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", seconds);
  return buf;
}

struct TablePrinter {
  explicit TablePrinter(std::string title) {
    std::printf("\n=== %s ===\n", title.c_str());
  }
  void row(const std::vector<std::string>& cells, int width = 12) {
    for (const std::string& c : cells) std::printf("%-*s", width, c.c_str());
    std::printf("\n");
  }
};

}  // namespace fl::bench

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
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "attacks/sat_attack.h"
#include "netlist/netlist.h"
#include "runtime/jsonl.h"
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

inline double attack_timeout_s() {
  return env_seconds("FULLLOCK_TIMEOUT_S", 10.0);
}
inline bool quick_mode() { return env_flag("FULLLOCK_QUICK"); }
inline std::uint64_t base_seed(std::uint64_t fallback) {
  return static_cast<std::uint64_t>(env_int(
      "FULLLOCK_SEED", static_cast<long long>(fallback), 0, 1LL << 62));
}

// The attack-stats block of the JSONL schema (see EXPERIMENTS.md): the
// deterministic fields first, then the wall-clock fields, whose `_s` suffix
// marks them as the only fields allowed to differ between two runs of the
// same seed grid.
inline void append_attack_fields(runtime::JsonObject& o,
                                 const attacks::AttackResult& r) {
  o.field("status", attacks::to_string(r.status))
      .field("stop_reason", sat::to_string(r.stop_reason))
      .field("iterations", r.iterations)
      .field("mean_clause_var_ratio", r.mean_clause_var_ratio)
      .field("oracle_queries", r.oracle_queries)
      .field("key_confirmed", r.key_confirmed)
      .field("banned_keys", r.banned_keys)
      .field("decisions", r.solver_stats.decisions)
      .field("propagations", r.solver_stats.propagations)
      .field("binary_propagations", r.solver_stats.binary_propagations)
      .field("conflicts", r.solver_stats.conflicts)
      .field("restarts", r.solver_stats.restarts)
      .field("learned_clauses", r.solver_stats.learned_clauses)
      .field("learned_binary", r.solver_stats.learned_binary)
      .field("glue_learned", r.solver_stats.glue_learned)
      .field("max_lbd", r.solver_stats.max_lbd)
      .field("promoted_clauses", r.solver_stats.promoted_clauses)
      .field("removed_clauses", r.solver_stats.removed_clauses)
      .field("db_size_after_reduce", r.solver_stats.db_size_after_reduce)
      .field("simplify_removed_clauses",
             r.solver_stats.simplify_removed_clauses)
      .field("cone_encoding", r.cone_encoding)
      .field("base_clauses", r.base_clauses)
      .field("base_vars", r.base_vars)
      .field("clauses_added", r.clauses_added)
      .field("vars_added", r.vars_added)
      .field("pp_ran", r.preprocess.ran)
      .field("pp_input_clauses", r.preprocess.input_clauses)
      .field("pp_output_clauses", r.preprocess.output_clauses)
      .field("pp_fixed_vars", r.preprocess.fixed_vars)
      .field("pp_eliminated_vars", r.preprocess.eliminated_vars)
      .field("pp_subsumed_clauses", r.preprocess.subsumed_clauses)
      .field("pp_strengthened_literals", r.preprocess.strengthened_literals)
      .field("mean_iteration_s", r.mean_iteration_seconds)
      .field("encode_s", r.encode_seconds)
      .field("preprocess_s", r.preprocess.preprocess_s)
      .field("wall_s", r.seconds);
}

// Optional per-DIP-iteration trace for a whole sweep (--trace PATH /
// FL_TRACE): one JsonlTraceSink shared by every cell, each record stamped
// with its grid cell index (the sink is thread-safe, so parallel cells may
// interleave records). Construct once in main, wire() per cell.
struct SweepTrace {
  explicit SweepTrace(const runtime::RunnerArgs& run_args) {
    if (!run_args.trace_path.empty()) {
      file.emplace(runtime::open_jsonl(run_args.trace_path));
      sink.emplace(*file);
    }
  }
  void wire(attacks::AttackOptions& options, std::size_t cell) {
    if (sink.has_value()) {
      options.trace = &*sink;
      options.trace_cell = static_cast<long long>(cell);
    }
  }

  std::optional<std::ofstream> file;
  std::optional<attacks::JsonlTraceSink> sink;
};

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

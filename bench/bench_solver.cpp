// Solver microbenchmark: the DIP-miter hot path (Table 2 CLN attacks), the
// key-confirmation anchor (c432 Full-Lock sizes=8, whose loop-ending solve
// under the candidate key's assumptions dominates the attack) and raw CDCL
// throughput on phase-transition random 3-SAT (m/n = 4.26).
//
// Emits one JSONL record per workload plus a trailing summary record to
// BENCH_solver.json (--out PATH), so the solver's perf trajectory is
// recorded per PR (the sanitizer CI uploads the --smoke variant as an
// artifact). Wall-clock fields carry the usual `_s` suffix; everything
// else is deterministic, so two runs of the same binary diff clean modulo
// `_s` fields. Each record's wall_s is the fastest of --repeat runs, and
// wall_q1_s / wall_median_s / wall_q3_s give their spread.
//
// Flags:
//   --smoke       tiny workload set for CI (seconds, not minutes)
//   --out PATH    output file (default BENCH_solver.json)
//   --repeat N    timing repetitions per workload (default 3)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "bench/bench_util.h"
#include "core/full_lock.h"
#include "locking/scheme.h"
#include "netlist/profiles.h"
#include "runtime/jsonl.h"
#include "runtime/runner.h"
#include "sat/ksat.h"
#include "sat/solver.h"

namespace {

using Clock = std::chrono::steady_clock;
using fl::core::ClnTopology;

struct WorkloadResult {
  std::string suite;  // "cln_miter" | "key_confirm" | "ksat"
  std::string name;
  std::vector<double> walls;   // one per repetition, sorted
  fl::sat::SolverStats stats;  // full stats of the fastest run
  std::string status;

  double wall_s() const { return walls.front(); }
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// One timed repetition of a workload.
struct Run {
  double wall_s = 0.0;
  fl::sat::SolverStats stats;
  std::string status;
};

// Calls `once` (which returns a Run) `repeat` times; keeps the fastest
// run's stats.
template <typename Once>
void time_repeats(WorkloadResult& r, int repeat, Once once) {
  double best = 1e100;
  for (int rep = 0; rep < repeat; ++rep) {
    Run run = once();
    r.walls.push_back(run.wall_s);
    if (run.wall_s < best) {
      best = run.wall_s;
      r.stats = run.stats;
      r.status = std::move(run.status);
    }
  }
  std::sort(r.walls.begin(), r.walls.end());
}

// A full oracle-guided SAT attack through attacks::run.
WorkloadResult run_attack(std::string suite, std::string name,
                          const fl::netlist::Netlist& original,
                          const fl::core::LockedCircuit& locked, int repeat,
                          double timeout_s) {
  WorkloadResult r;
  r.suite = std::move(suite);
  r.name = std::move(name);
  const fl::attacks::Oracle oracle(original);
  fl::attacks::AttackOptions options;
  options.timeout_s = timeout_s;
  time_repeats(r, repeat, [&] {
    const auto start = Clock::now();
    const fl::attacks::AttackResult attack =
        fl::attacks::run("sat", locked.netlist, oracle, options).result;
    const double wall = seconds_since(start);
    return Run{wall, attack.solver_stats,
               fl::attacks::to_string(attack.status)};
  });
  return r;
}

// One Table 2 cell: CLN-only lock over the identity circuit, full
// oracle-guided attack. The DIP loop is exactly the solver workload the
// paper's tables are bounded by.
WorkloadResult run_cln_miter(ClnTopology topo, int n, int repeat,
                             double timeout_s) {
  const fl::netlist::Netlist original = fl::bench::identity_circuit(n);
  fl::core::FullLockConfig config = fl::core::FullLockConfig::with_plrs(
      {n}, topo, fl::core::CycleMode::kAvoid,
      /*twist_luts=*/false, /*negate_probability=*/0.5);
  config.seed = 7;
  return run_attack(
      "cln_miter",
      std::string(topo == ClnTopology::kShuffleBlocking ? "blocking"
                                                        : "nonblocking") +
          "_n" + std::to_string(n),
      original, fl::core::full_lock(original, config), repeat, timeout_s);
}

// keybench's c432 `full-lock sizes=8` anchor (circuit seed 1, lock seed 2):
// most of its attack is the solve that confirms the last candidate key
// under that key's assumptions.
WorkloadResult run_key_confirm(int repeat, double timeout_s) {
  const fl::netlist::Netlist original = fl::netlist::make_circuit("c432", 1);
  return run_attack(
      "key_confirm", "c432_full_lock_sizes8", original,
      fl::lock::lock_with("full-lock", original,
                          fl::lock::make_options(2, {}, "sizes=8")),
      repeat, timeout_s);
}

// Raw CDCL run on a fixed-length random 3-SAT instance at the hardness
// peak (m/n = 4.26).
WorkloadResult run_ksat(int num_vars, std::uint64_t seed, int repeat) {
  WorkloadResult r;
  r.suite = "ksat";
  r.name = "ksat_n" + std::to_string(num_vars) + "_s" + std::to_string(seed);
  fl::sat::KSatConfig config;
  config.num_vars = num_vars;
  config.num_clauses = static_cast<int>(num_vars * 4.26);
  config.seed = seed;
  const fl::sat::Cnf cnf = fl::sat::random_ksat(config);
  time_repeats(r, repeat, [&] {
    fl::sat::Solver solver;
    for (int v = 0; v < cnf.num_vars; ++v) solver.new_var();
    for (const fl::sat::Clause& c : cnf.clauses) solver.add_clause(c);
    const auto start = Clock::now();
    const fl::sat::LBool result = solver.solve();
    const double wall = seconds_since(start);
    const char* status = result == fl::sat::LBool::kTrue    ? "sat"
                         : result == fl::sat::LBool::kFalse ? "unsat"
                                                            : "undef";
    return Run{wall, solver.stats(), status};
  });
  return r;
}

void append_solver_stat_fields(fl::runtime::JsonObject& o,
                               const fl::sat::SolverStats& s) {
  o.field("decisions", s.decisions)
      .field("propagations", s.propagations)
      .field("binary_propagations", s.binary_propagations)
      .field("conflicts", s.conflicts)
      .field("restarts", s.restarts)
      .field("learned_clauses", s.learned_clauses)
      .field("learned_binary", s.learned_binary)
      .field("mean_lbd", s.learned_clauses > 0
                             ? static_cast<double>(s.lbd_sum) /
                                   static_cast<double>(s.learned_clauses)
                             : 0.0)
      .field("glue_learned", s.glue_learned)
      .field("max_lbd", s.max_lbd)
      .field("promoted_clauses", s.promoted_clauses)
      .field("removed_clauses", s.removed_clauses)
      .field("db_size_after_reduce", s.db_size_after_reduce)
      .field("core_learnts", s.core_learnts)
      .field("simplify_removed_clauses", s.simplify_removed_clauses)
      .field("simplify_removed_literals", s.simplify_removed_literals);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bool smoke = false;
    std::string out_path = "BENCH_solver.json";
    int repeat = 3;
    const double timeout_s =
        fl::bench::env_seconds("FULLLOCK_TIMEOUT_S", 120.0);
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--smoke") == 0) {
        smoke = true;
      } else if (auto v = fl::runtime::flag_value("--out", argc, argv, i)) {
        out_path = *v;
      } else if (auto v = fl::runtime::flag_value("--repeat", argc, argv, i)) {
        repeat = static_cast<int>(
            fl::runtime::parse_int_flag("--repeat", *v, 1, 1000000));
      } else {
        std::fprintf(stderr,
                     "usage: bench_solver [--smoke] [--out PATH] "
                     "[--repeat N]\n");
        return 1;
      }
    }

    std::vector<WorkloadResult> results;
    // Table 2 CLN miters: sizes on the steep part of the hardness curve but
    // well clear of the timeout, so wall time measures solver speed rather
    // than the TO ceiling.
    struct MiterCell { ClnTopology topo; int n; };
    const std::vector<MiterCell> miters =
        smoke ? std::vector<MiterCell>{{ClnTopology::kShuffleBlocking, 16},
                                       {ClnTopology::kShuffleBlocking, 32},
                                       {ClnTopology::kBanyanNonBlocking, 8},
                                       {ClnTopology::kBanyanNonBlocking, 16}}
              : std::vector<MiterCell>{{ClnTopology::kShuffleBlocking, 32},
                                       {ClnTopology::kShuffleBlocking, 64},
                                       {ClnTopology::kShuffleBlocking, 128},
                                       {ClnTopology::kBanyanNonBlocking, 16},
                                       {ClnTopology::kBanyanNonBlocking, 32}};
    const auto report = [&](WorkloadResult r) {
      std::printf("%-32s %10.4f s  %12llu conflicts  (%s)\n", r.name.c_str(),
                  r.wall_s(),
                  static_cast<unsigned long long>(r.stats.conflicts),
                  r.status.c_str());
      std::fflush(stdout);
      results.push_back(std::move(r));
    };
    for (const MiterCell& m : miters) {
      report(run_cln_miter(m.topo, m.n, smoke ? 1 : repeat, timeout_s));
    }
    if (!smoke) report(run_key_confirm(repeat, timeout_s));
    // Phase-transition 3-SAT (m/n = 4.26), mixed SAT/UNSAT outcomes: raw
    // CDCL throughput.
    struct KsatCell { int n; std::uint64_t seed; };
    const std::vector<KsatCell> ksats =
        smoke ? std::vector<KsatCell>{{100, 1}, {100, 2}, {125, 1}}
              : std::vector<KsatCell>{{150, 1}, {150, 2}, {175, 1},
                                      {175, 2}, {200, 1}, {200, 2},
                                      {225, 1}, {225, 2}};
    for (const KsatCell& k : ksats) report(run_ksat(k.n, k.seed, repeat));

    // Summary: geomean wall time and conflict throughput across workloads.
    double log_wall = 0.0, log_cps = 0.0, total_wall = 0.0;
    std::size_t cps_samples = 0;
    for (const WorkloadResult& r : results) {
      log_wall += std::log(std::max(r.wall_s(), 1e-9));
      total_wall += r.wall_s();
      if (r.stats.conflicts > 0 && r.wall_s() > 0.0) {
        log_cps +=
            std::log(static_cast<double>(r.stats.conflicts) / r.wall_s());
        ++cps_samples;
      }
    }
    const double geomean_wall =
        std::exp(log_wall / static_cast<double>(results.size()));
    const double geomean_cps =
        cps_samples > 0 ? std::exp(log_cps / static_cast<double>(cps_samples))
                        : 0.0;

    std::ofstream file = fl::runtime::open_jsonl(out_path);
    fl::runtime::JsonlSink sink(file);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const WorkloadResult& r = results[i];
      fl::runtime::JsonObject o;
      o.field("bench", "bench_solver")
          .field("suite", r.suite)
          .field("workload", r.name)
          .field("status", r.status);
      append_solver_stat_fields(o, r.stats);
      o.field("conflicts_per_s",
              r.wall_s() > 0.0
                  ? static_cast<double>(r.stats.conflicts) / r.wall_s()
                  : 0.0)
          .field("wall_s", r.wall_s())
          .field("wall_q1_s", fl::bench::quantile(r.walls, 0.25))
          .field("wall_median_s", fl::bench::quantile(r.walls, 0.5))
          .field("wall_q3_s", fl::bench::quantile(r.walls, 0.75));
      sink.write(i, o.str());
    }
    fl::runtime::JsonObject summary;
    summary.field("bench", "bench_solver")
        .field("suite", "summary")
        .field("workloads", results.size())
        .field("smoke", smoke)
        .field("geomean_conflicts_per_s", geomean_cps)
        .field("geomean_wall_s", geomean_wall)
        .field("total_wall_s", total_wall);
    sink.write_unordered(summary.str());
    sink.flush();
    std::printf("\ngeomean wall %.4f s, geomean %.0f conflicts/s -> %s\n",
                geomean_wall, geomean_cps, out_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

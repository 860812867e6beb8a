// Table 2: SAT-attack iterations and execution time on a single CLN
// (locked identity circuit), blocking shuffle vs almost-non-blocking
// LOG(N, log2N-2, 1), N = 4 .. 512.
//
// Expected shape (paper, scaled by FULLLOCK_TIMEOUT_S instead of 2e6 s):
// time grows exponentially in N for both topologies; the non-blocking
// network is >= an order of magnitude harder at equal N and times out
// first (paper: non-blocking unbroken beyond N=64, blocking only at 512).
//
// The (topology x N) grid fans out over the shared worker pool
// (--jobs N / FL_JOBS; --jobs 1 = the serial reference loop) and every cell
// can be logged to a durable JSONL sink (--jsonl PATH / FL_JSONL). An
// interrupted or killed sweep continues where it left off with --resume;
// see EXPERIMENTS.md for the crash-safe sweep flags (--retries,
// --cell-timeout, --mem-mb).
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "bench/bench_util.h"
#include "core/full_lock.h"
#include "runtime/jsonl.h"
#include "runtime/runner.h"
#include "runtime/seed.h"
#include "runtime/sweep.h"

namespace {

using fl::bench::TablePrinter;
using fl::core::ClnTopology;

struct Cell {
  ClnTopology topology;
  int n;
  std::uint64_t seed;
};

struct CellResult {
  std::size_t key_bits = 0;
  fl::attacks::RunResult run;
};

const char* topology_name(ClnTopology topo) {
  return topo == ClnTopology::kShuffleBlocking ? "blocking" : "nonblocking";
}

std::vector<int> sweep_sizes() {
  const auto max_n = fl::bench::env_int("FULLLOCK_MAX_N", 512, 4, 1 << 16);
  if (fl::bench::quick_mode()) return {4, 8, 16};
  std::vector<int> sizes;
  for (int n = 4; n <= max_n; n *= 2) sizes.push_back(n);
  return sizes;
}

CellResult run_cell(const Cell& cell, const fl::runtime::CellContext& ctx,
                    double timeout_s, const fl::runtime::RunnerArgs& run_args,
                    fl::attacks::TraceFile& trace) {
  CellResult result;
  const fl::netlist::Netlist original = fl::bench::identity_circuit(cell.n);
  // CLN-only lock: no LUT twisting so the instance is exactly one CLN,
  // matching the paper's Table 2 setup.
  fl::core::FullLockConfig config = fl::core::FullLockConfig::with_plrs(
      {cell.n}, cell.topology, fl::core::CycleMode::kAvoid,
      /*twist_luts=*/false,
      /*negate_probability=*/0.5);
  config.seed = cell.seed;
  const fl::core::LockedCircuit locked = fl::core::full_lock(original, config);
  result.key_bits = locked.key_bits();
  const fl::attacks::Oracle oracle(original);
  fl::attacks::AttackOptions options;
  options.timeout_s = ctx.effective_timeout(timeout_s);
  options.interrupt = ctx.interrupt;
  options.memory_limit_mb = run_args.memory_limit_mb;
  options.trace = trace.sink();
  options.trace_cell = static_cast<long long>(ctx.index);
  result.run = fl::attacks::run("sat", locked, oracle, options);
  return result;
}

void print_table(const std::vector<Cell>& grid,
                 const std::vector<CellResult>& results,
                 const fl::runtime::GridReport& report, double timeout_s) {
  TablePrinter table("Table 2 — SAT attack on CLN-locked identity circuit "
                     "(TO = " + std::to_string(timeout_s) + " s)");
  const auto emit = [&](ClnTopology topo, const char* name) {
    std::printf("-- %s --\n", name);
    table.row({"N", "key_bits", "iterations", "time_s"});
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (grid[i].topology != topo) continue;
      if (report.cells[i].status != fl::runtime::CellOutcome::Status::kOk) {
        table.row({std::to_string(grid[i].n), "-", "-",
                   fl::runtime::to_string(report.cells[i].status)});
        continue;
      }
      const CellResult& cell = results[i];
      const fl::attacks::AttackResult& attack = cell.run.result;
      const bool timed_out =
          attack.status == fl::attacks::AttackStatus::kTimeout;
      table.row({std::to_string(grid[i].n), std::to_string(cell.key_bits),
                 timed_out ? ">" + std::to_string(attack.iterations)
                           : std::to_string(attack.iterations),
                 fl::bench::fmt_time_or_to(timed_out, attack.seconds)});
    }
  };
  emit(ClnTopology::kShuffleBlocking, "shuffle-based blocking CLN");
  emit(ClnTopology::kBanyanNonBlocking,
       "almost non-blocking CLN LOG(N, log2N-2, 1)");
  std::printf("(paper shape: non-blocking TOs at smaller N than blocking; "
              "time grows exponentially in N)\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const fl::runtime::RunnerArgs run_args =
        fl::runtime::parse_runner_args(argc, argv);
    const std::uint64_t base = fl::bench::base_seed(7);
    const double timeout_s = fl::bench::attack_timeout_s();
    const std::vector<int> sizes = sweep_sizes();

    std::vector<Cell> grid;
    for (const ClnTopology topo :
         {ClnTopology::kShuffleBlocking, ClnTopology::kBanyanNonBlocking}) {
      for (const int n : sizes) {
        grid.push_back({topo, n,
                        fl::runtime::derive_seed(
                            base, {static_cast<std::uint64_t>(topo),
                                   static_cast<std::uint64_t>(n)})});
      }
    }
    std::vector<CellResult> results(grid.size());
    fl::attacks::TraceFile trace(run_args.trace_path);

    fl::runtime::SweepSession session("table2", grid.size(), base, run_args);
    const auto record_base = [&](std::size_t i) {
      fl::runtime::JsonObject o;
      o.field("cell", i)
          .field("bench", "table2")
          .field("topology", topology_name(grid[i].topology))
          .field("n", grid[i].n)
          .field("seed", grid[i].seed);
      return o;
    };

    std::printf("table2: %zu cells on %d worker(s), %zu already done\n",
                grid.size(), run_args.jobs, session.num_resumed());
    const fl::runtime::GridReport report = fl::runtime::run_grid(
        grid.size(), session.grid_config(),
        [&](const fl::runtime::CellContext& ctx) {
          const std::size_t i = ctx.index;
          results[i] = run_cell(grid[i], ctx, timeout_s, run_args, trace);
          if (results[i].run.result.status ==
              fl::attacks::AttackStatus::kInterrupted) {
            session.note_interrupted(i);
            return;
          }
          if (session.sink() != nullptr) {
            fl::runtime::JsonObject o = record_base(i);
            o.field("key_bits", results[i].key_bits)
                .merge(fl::attacks::to_json(results[i].run));
            session.sink()->write(i, o.str());
          }
        });

    print_table(grid, results, report, timeout_s);
    return session.finish(report, record_base);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

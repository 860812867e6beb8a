// Figure 1: median number of recursive DPLL calls for random 3-SAT as the
// clauses-to-variables ratio sweeps 2.0 .. 8.0.
//
// Expected shape: easy when under-constrained (< 3) or over-constrained
// (> 6), a hardness peak near ratio 4.3 — the distribution Full-Lock's CLN
// is engineered to land in (§3).
//
// The grid is one cell per (ratio, seed-index) instance, fanned out over
// the shared worker pool (--jobs N / FL_JOBS); the table aggregates the
// per-instance results per ratio. --jsonl PATH / FL_JSONL logs each
// instance individually and durably; an interrupted sweep continues with
// --resume (see EXPERIMENTS.md).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "runtime/jsonl.h"
#include "runtime/runner.h"
#include "runtime/seed.h"
#include "runtime/sweep.h"
#include "sat/dpll.h"
#include "sat/ksat.h"

namespace {

using fl::bench::TablePrinter;

int num_vars() { return fl::bench::quick_mode() ? 24 : 40; }
int num_seeds() { return fl::bench::quick_mode() ? 5 : 9; }

struct Cell {
  int ratio10;
  int seed_index;
  std::uint64_t seed;
};

struct CellResult {
  std::uint64_t recursive_calls = 0;
  bool satisfiable = false;
};

CellResult run_cell(const Cell& cell) {
  const int n = num_vars();
  fl::sat::KSatConfig config;
  config.num_vars = n;
  config.num_clauses = std::max(1, static_cast<int>(n * cell.ratio10 / 10.0));
  config.k = 3;
  config.seed = cell.seed;
  const fl::sat::DpllResult r =
      fl::sat::Dpll().solve(fl::sat::random_ksat(config));
  return {r.recursive_calls, r.satisfiable};
}

void print_table(const std::vector<Cell>& grid,
                 const std::vector<CellResult>& results) {
  TablePrinter table("Fig. 1 — median recursive DPLL calls vs clause/var "
                     "ratio (random 3-SAT, n=" +
                     std::to_string(num_vars()) + ")");
  table.row({"ratio", "median_calls", "max_calls", "sat_frac"});
  for (std::size_t i = 0; i < grid.size();) {
    const int ratio10 = grid[i].ratio10;
    std::vector<std::uint64_t> calls;
    int sat_count = 0;
    for (; i < grid.size() && grid[i].ratio10 == ratio10; ++i) {
      calls.push_back(results[i].recursive_calls);
      sat_count += results[i].satisfiable ? 1 : 0;
    }
    std::sort(calls.begin(), calls.end());
    char ratio_s[16];
    std::snprintf(ratio_s, sizeof(ratio_s), "%.1f", ratio10 / 10.0);
    table.row({ratio_s, std::to_string(calls[calls.size() / 2]),
               std::to_string(calls.back()),
               std::to_string(static_cast<double>(sat_count) /
                              static_cast<double>(calls.size()))});
  }
  std::printf("(paper: hardness peak at ratio ~4.3, easy below 3 and "
              "above 6)\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const fl::runtime::RunnerArgs run_args =
        fl::bench::grid_runner_args(argc, argv);
    const std::uint64_t base = fl::bench::base_seed(7000);

    std::vector<Cell> grid;
    for (int ratio10 = 20; ratio10 <= 80; ratio10 += 5) {
      for (int s = 0; s < num_seeds(); ++s) {
        grid.push_back({ratio10, s,
                        fl::runtime::derive_seed(
                            base, {static_cast<std::uint64_t>(ratio10),
                                   static_cast<std::uint64_t>(s)})});
      }
    }
    std::vector<CellResult> results(grid.size());

    fl::runtime::SweepSession session("fig1", grid.size(), base, run_args);
    const auto record_base = [&](std::size_t i) {
      fl::runtime::JsonObject o;
      o.field("cell", i)
          .field("bench", "fig1")
          .field("ratio", grid[i].ratio10 / 10.0)
          .field("seed_index", grid[i].seed_index)
          .field("seed", grid[i].seed)
          .field("num_vars", num_vars());
      return o;
    };

    std::printf("fig1: %zu instances on %d worker(s), %zu already done\n",
                grid.size(), run_args.jobs, session.num_resumed());
    const fl::runtime::GridReport report = fl::runtime::run_grid(
        grid.size(), session.grid_config(),
        [&](const fl::runtime::CellContext& ctx) {
          const std::size_t i = ctx.index;
          results[i] = run_cell(grid[i]);
          // DPLL has no interrupt hook; treat a cell that finished after
          // the signal arrived as interrupted so no record is written and
          // --resume re-runs it.
          if (ctx.interrupt != nullptr &&
              ctx.interrupt->load(std::memory_order_relaxed)) {
            session.note_interrupted(i);
            return;
          }
          if (session.sink() != nullptr) {
            fl::runtime::JsonObject o = record_base(i);
            o.field("recursive_calls", results[i].recursive_calls)
                .field("satisfiable", results[i].satisfiable);
            session.sink()->write(i, o.str());
          }
        });

    print_table(grid, results);
    return session.finish(report, record_base);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

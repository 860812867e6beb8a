// Table 4: CycSAT execution time on Full-Lock across ISCAS-85 / MCNC
// benchmark profiles, as the number and size of inserted PLRs grows
// (k x 16x16 and k x 32x32).
//
// Expected shape: time climbs steeply with PLR count/size; every circuit
// eventually hits TO; larger CLNs reach TO with fewer PLRs. An ablation
// column (1x16 CLN-only, no LUT twisting) quantifies §3.2's contribution.
//
// The (circuit x column) grid fans out over the shared worker pool
// (--jobs N / FL_JOBS) with per-cell seeds derived from the grid
// coordinates; --jsonl PATH / FL_JSONL logs every cell durably, and an
// interrupted or killed sweep continues with --resume (see EXPERIMENTS.md).
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "bench/bench_util.h"
#include "core/full_lock.h"
#include "netlist/profiles.h"
#include "runtime/jsonl.h"
#include "runtime/runner.h"
#include "runtime/seed.h"
#include "runtime/sweep.h"

namespace {

using fl::bench::TablePrinter;

struct Column {
  const char* label;
  std::vector<int> cln_sizes;
  bool twist_luts;
};

const std::vector<Column>& columns() {
  // Scaled-down analogue of the paper's 16x16/32x32 sweep: with the bench
  // timeout at seconds instead of 2e6 s, the breakable-to-TO gradient sits
  // at 4..16-wire PLRs. "-noLUT" is the §3.2 ablation (CLN only).
  static const std::vector<Column> cols = {
      {"1x4", {4}, true},
      {"1x8-noLUT", {8}, false},
      {"1x8", {8}, true},
      {"2x8-noLUT", {8, 8}, false},
      {"2x8", {8, 8}, true},
      {"1x16", {16}, true},
      {"2x16", {16, 16}, true},
  };
  return cols;
}

std::vector<std::string> circuits() {
  if (fl::bench::quick_mode()) return {"c432"};
  if (fl::bench::env_flag("FULLLOCK_FULL")) {
    std::vector<std::string> all;
    for (const auto& p : fl::netlist::table5_profiles()) all.push_back(p.name);
    return all;
  }
  return {"c432", "c499", "c880", "c1355", "apex2", "i4"};
}

struct Cell {
  std::size_t circuit;
  std::size_t column;
  std::uint64_t seed;
};

struct CellResult {
  bool cyclic = false;
  fl::attacks::RunResult run;
};

CellResult run_cell(const std::string& circuit, const Column& column,
                    std::uint64_t seed, const fl::runtime::CellContext& ctx,
                    double timeout_s, const fl::runtime::RunnerArgs& run_args,
                    fl::attacks::TraceFile& trace) {
  CellResult cell;
  const fl::netlist::Netlist original = fl::netlist::make_circuit(circuit, 1);
  // Random insertion (paper §3.3): cycles allowed, hence CycSAT.
  fl::core::FullLockConfig config = fl::core::FullLockConfig::with_plrs(
      column.cln_sizes, fl::core::ClnTopology::kBanyanNonBlocking,
      fl::core::CycleMode::kAllow, column.twist_luts, 0.5);
  config.seed = seed;
  const fl::core::LockedCircuit locked = fl::core::full_lock(original, config);
  cell.cyclic = locked.netlist.is_cyclic();
  const fl::attacks::Oracle oracle(original);
  fl::attacks::AttackOptions options;
  options.timeout_s = ctx.effective_timeout(timeout_s);
  options.interrupt = ctx.interrupt;
  options.memory_limit_mb = run_args.memory_limit_mb;
  options.trace = trace.sink();
  options.trace_cell = static_cast<long long>(ctx.index);
  cell.run = fl::attacks::run("cycsat", locked, oracle, options);
  return cell;
}

void print_table(const std::vector<std::string>& names,
                 const std::vector<CellResult>& results, double timeout_s) {
  TablePrinter table("Table 4 — CycSAT time (s) on Full-Lock, TO = " +
                     std::to_string(timeout_s) + " s");
  std::vector<std::string> header{"circuit"};
  for (const Column& c : columns()) header.push_back(c.label);
  table.row(header);
  for (std::size_t ci = 0; ci < names.size(); ++ci) {
    std::vector<std::string> cells{names[ci]};
    for (std::size_t col = 0; col < columns().size(); ++col) {
      const CellResult& cell = results[ci * columns().size() + col];
      const bool timed_out =
          cell.run.result.status != fl::attacks::AttackStatus::kSuccess;
      std::string text =
          fl::bench::fmt_time_or_to(timed_out, cell.run.result.seconds);
      if (cell.cyclic) text += "*";
      cells.push_back(text);
    }
    table.row(cells);
  }
  std::printf("(* = insertion produced a cyclic netlist; paper shape: time "
              "climbs with PLR count/size until TO; 32x32 PLRs TO with "
              "fewer insertions than 16x16)\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const fl::runtime::RunnerArgs run_args =
        fl::runtime::parse_runner_args(argc, argv);
    const std::uint64_t base = fl::bench::base_seed(11);
    const double timeout_s = fl::bench::attack_timeout_s();
    const std::vector<std::string> names = circuits();

    std::vector<Cell> grid;
    for (std::size_t ci = 0; ci < names.size(); ++ci) {
      for (std::size_t col = 0; col < columns().size(); ++col) {
        grid.push_back({ci, col,
                        fl::runtime::derive_seed(
                            base, {static_cast<std::uint64_t>(ci),
                                   static_cast<std::uint64_t>(col)})});
      }
    }
    std::vector<CellResult> results(grid.size());
    fl::attacks::TraceFile trace(run_args.trace_path);

    fl::runtime::SweepSession session("table4", grid.size(), base, run_args);
    const auto record_base = [&](std::size_t i) {
      fl::runtime::JsonObject o;
      o.field("cell", i)
          .field("bench", "table4")
          .field("circuit", names[grid[i].circuit])
          .field("plr", columns()[grid[i].column].label)
          .field("seed", grid[i].seed);
      return o;
    };

    std::printf("table4: %zu cells on %d worker(s), %zu already done\n",
                grid.size(), run_args.jobs, session.num_resumed());
    const fl::runtime::GridReport report = fl::runtime::run_grid(
        grid.size(), session.grid_config(),
        [&](const fl::runtime::CellContext& ctx) {
          const std::size_t i = ctx.index;
          const Cell& cell = grid[i];
          results[i] = run_cell(names[cell.circuit], columns()[cell.column],
                                cell.seed, ctx, timeout_s, run_args, trace);
          if (results[i].run.result.status ==
              fl::attacks::AttackStatus::kInterrupted) {
            session.note_interrupted(i);
            return;
          }
          if (session.sink() != nullptr) {
            fl::runtime::JsonObject o = record_base(i);
            o.field("cyclic", results[i].cyclic)
                .merge(fl::attacks::to_json(results[i].run));
            session.sink()->write(i, o.str());
          }
        });

    print_table(names, results, timeout_s);
    return session.finish(report, record_base);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

// Table 4: CycSAT execution time on Full-Lock across ISCAS-85 / MCNC
// benchmark profiles, as the number and size of inserted PLRs grows
// (k x 16x16 and k x 32x32).
//
// Expected shape: time climbs steeply with PLR count/size; every circuit
// eventually hits TO; larger CLNs reach TO with fewer PLRs. An ablation
// column (1x16 CLN-only, no LUT twisting) quantifies §3.2's contribution.
//
// The (circuit x column) cells run on attacks::run_sweep over the shared
// worker pool (--jobs N / FL_JOBS) with per-cell seeds derived from the
// grid coordinates; --jsonl PATH / FL_JSONL logs every cell durably, and an
// interrupted or killed sweep continues with --resume (see EXPERIMENTS.md).
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "attacks/sweep.h"
#include "bench/bench_util.h"
#include "netlist/profiles.h"
#include "runtime/runner.h"
#include "runtime/seed.h"

namespace {

using fl::bench::TablePrinter;

struct Column {
  const char* label;
  std::vector<int> cln_sizes;
  // Random insertion (paper §3.3): cycles allowed, hence CycSAT.
  const char* params;
};

const std::vector<Column>& columns() {
  // Scaled-down analogue of the paper's 16x16/32x32 sweep: with the bench
  // timeout at seconds instead of 2e6 s, the breakable-to-TO gradient sits
  // at 4..16-wire PLRs. "-noLUT" is the §3.2 ablation (CLN only).
  static const std::vector<Column> cols = {
      {"1x4", {4}, "cycle=allow"},
      {"1x8-noLUT", {8}, "cycle=allow,twist=0"},
      {"1x8", {8}, "cycle=allow"},
      {"2x8-noLUT", {8, 8}, "cycle=allow,twist=0"},
      {"2x8", {8, 8}, "cycle=allow"},
      {"1x16", {16}, "cycle=allow"},
      {"2x16", {16, 16}, "cycle=allow"},
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

void print_table(const std::vector<std::string>& names,
                 const fl::attacks::SweepResult& sweep, double timeout_s) {
  TablePrinter table("Table 4 — CycSAT time (s) on Full-Lock, TO = " +
                     std::to_string(timeout_s) + " s");
  std::vector<std::string> header{"circuit"};
  for (const Column& c : columns()) header.push_back(c.label);
  table.row(header);
  for (std::size_t ci = 0; ci < names.size(); ++ci) {
    std::vector<std::string> cells{names[ci]};
    for (std::size_t col = 0; col < columns().size(); ++col) {
      const std::size_t i = ci * columns().size() + col;
      const fl::runtime::CellOutcome::Status status =
          sweep.report.cells[i].status;
      if (status != fl::runtime::CellOutcome::Status::kOk) {
        cells.push_back(fl::runtime::to_string(status));
        continue;
      }
      const fl::attacks::SweepCell& cell = sweep.cells[i];
      const bool timed_out =
          cell.run.result.status != fl::attacks::AttackStatus::kSuccess;
      // A success whose key the proof refutes broke nothing.
      std::string text =
          cell.run.key_check == fl::core::KeyCheck::kRefuted
              ? "refuted"
              : fl::bench::fmt_time_or_to(timed_out, cell.run.result.seconds);
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
        fl::bench::grid_runner_args(argc, argv);
    fl::attacks::SweepSpec spec;
    spec.bench = "table4";
    spec.seed = fl::bench::base_seed(11);
    spec.attack = "cycsat";
    spec.timeout_s = fl::bench::attack_timeout_s();
    const std::vector<std::string> names = circuits();

    std::vector<fl::netlist::Netlist> hosts;
    std::vector<fl::attacks::SweepCell> cells;
    for (std::size_t ci = 0; ci < names.size(); ++ci) {
      hosts.push_back(fl::netlist::make_circuit(names[ci], 1));
      for (std::size_t col = 0; col < columns().size(); ++col) {
        fl::attacks::SweepCell& cell = cells.emplace_back();
        cell.host = ci;
        cell.scheme = "full-lock";
        cell.sizes = columns()[col].cln_sizes;
        cell.params = columns()[col].params;
        cell.seed = fl::runtime::derive_seed(
            spec.seed, {static_cast<std::uint64_t>(ci),
                        static_cast<std::uint64_t>(col)});
        cell.coords.field("plr", columns()[col].label);
      }
    }
    fl::attacks::validate_sweep(cells);

    const fl::attacks::SweepResult sweep =
        fl::attacks::run_sweep(hosts, std::move(cells), spec, run_args);
    std::printf("table4: %zu cells on %d worker(s), %zu already done\n",
                sweep.cells.size(), run_args.jobs, sweep.report.skipped);
    print_table(names, sweep, spec.timeout_s);
    return sweep.exit_code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

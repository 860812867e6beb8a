// Table 2: SAT-attack iterations and execution time on a single CLN
// (locked identity circuit), blocking shuffle vs almost-non-blocking
// LOG(N, log2N-2, 1), N = 4 .. 512.
//
// Expected shape (paper, scaled by FULLLOCK_TIMEOUT_S instead of 2e6 s):
// time grows exponentially in N for both topologies; the non-blocking
// network is >= an order of magnitude harder at equal N and times out
// first (paper: non-blocking unbroken beyond N=64, blocking only at 512).
//
// The (topology x N) cells run on attacks::run_sweep, one identity host per
// N, over the shared worker pool (--jobs N / FL_JOBS; --jobs 1 = the serial
// reference loop), and every cell can be logged to a durable JSONL sink
// (--jsonl PATH / FL_JSONL). Each cell runs once, under the
// FULLLOCK_TIMEOUT_S attack timeout. An interrupted or killed sweep
// continues where it left off with --resume; see EXPERIMENTS.md for the
// crash-safe sweep flags (--resume, --mem-mb).
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "attacks/sweep.h"
#include "bench/bench_util.h"
#include "core/cln.h"
#include "runtime/runner.h"
#include "runtime/seed.h"

namespace {

using fl::bench::TablePrinter;
using fl::core::ClnTopology;

struct Topology {
  ClnTopology topology;  // the cell seed's coordinate
  const char* name;      // the record's "topology"
  const char* params;    // CLN-only Full-Lock: no LUT twisting
  const char* title;
};

// The instance is exactly one CLN, matching the paper's Table 2 setup.
constexpr Topology kTopologies[] = {
    {ClnTopology::kShuffleBlocking, "blocking", "topology=shuffle,twist=0",
     "shuffle-based blocking CLN"},
    {ClnTopology::kBanyanNonBlocking, "nonblocking", "topology=banyan,twist=0",
     "almost non-blocking CLN LOG(N, log2N-2, 1)"},
};

// The registry's largest CLN (lock::registry() "full-lock" sizes) caps N.
std::vector<int> sweep_sizes() {
  const auto max_n = fl::bench::env_int("FULLLOCK_MAX_N", 512, 4, 4096);
  if (fl::bench::quick_mode()) return {4, 8, 16};
  std::vector<int> sizes;
  for (int n = 4; n <= max_n; n *= 2) sizes.push_back(n);
  return sizes;
}

void print_table(const std::vector<int>& sizes,
                 const fl::attacks::SweepResult& sweep, double timeout_s) {
  TablePrinter table("Table 2 — SAT attack on CLN-locked identity circuit "
                     "(TO = " + std::to_string(timeout_s) + " s)");
  std::size_t i = 0;
  for (const Topology& topo : kTopologies) {
    std::printf("-- %s --\n", topo.title);
    table.row({"N", "key_bits", "iterations", "time_s"});
    for (const int n : sizes) {
      const fl::runtime::CellOutcome::Status status =
          sweep.report.cells[i].status;
      const fl::attacks::SweepCell& cell = sweep.cells[i++];
      if (status != fl::runtime::CellOutcome::Status::kOk) {
        table.row(
            {std::to_string(n), "-", "-", fl::runtime::to_string(status)});
        continue;
      }
      const fl::attacks::AttackResult& attack = cell.run.result;
      const bool timed_out =
          attack.status == fl::attacks::AttackStatus::kTimeout;
      // A success whose key the proof refutes broke nothing.
      const bool refuted = cell.run.key_check == fl::core::KeyCheck::kRefuted;
      table.row({std::to_string(n), std::to_string(cell.key_bits),
                 timed_out ? ">" + std::to_string(attack.iterations)
                           : std::to_string(attack.iterations),
                 refuted ? "refuted"
                         : fl::bench::fmt_time_or_to(timed_out,
                                                     attack.seconds)});
    }
  }
  std::printf("(paper shape: non-blocking TOs at smaller N than blocking; "
              "time grows exponentially in N)\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const fl::runtime::RunnerArgs run_args =
        fl::bench::grid_runner_args(argc, argv);
    fl::attacks::SweepSpec spec;
    spec.bench = "table2";
    spec.seed = fl::bench::base_seed(7);
    spec.attack = "sat";
    spec.timeout_s = fl::bench::attack_timeout_s();
    const std::vector<int> sizes = sweep_sizes();

    std::vector<fl::netlist::Netlist> hosts;
    for (const int n : sizes) hosts.push_back(fl::bench::identity_circuit(n));
    std::vector<fl::attacks::SweepCell> cells;
    for (const Topology& topo : kTopologies) {
      for (std::size_t h = 0; h < sizes.size(); ++h) {
        const int n = sizes[h];
        fl::attacks::SweepCell& cell = cells.emplace_back();
        cell.host = h;
        cell.scheme = "full-lock";
        cell.sizes = {n};
        cell.params = topo.params;
        cell.seed = fl::runtime::derive_seed(
            spec.seed, {static_cast<std::uint64_t>(topo.topology),
                        static_cast<std::uint64_t>(n)});
        cell.coords.field("topology", topo.name).field("n", n);
      }
    }
    fl::attacks::validate_sweep(cells);

    const fl::attacks::SweepResult sweep =
        fl::attacks::run_sweep(hosts, std::move(cells), spec, run_args);
    std::printf("table2: %zu cells on %d worker(s), %zu already done\n",
                sweep.cells.size(), run_args.jobs, sweep.report.skipped);
    print_table(sizes, sweep, spec.timeout_s);
    return sweep.exit_code;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

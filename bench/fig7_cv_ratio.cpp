// Figure 7: average clauses-to-variables ratio of the CNF the SAT solver
// works on during deobfuscation, per locking scheme. Every scheme is
// resolved through the lock-scheme registry (locking/scheme.h), so new
// registry entries join the grid by adding one SchemeSpec row.
//
// Expected shape: Full-Lock highest (paper: 3.77, in the hard 3..6 band of
// Fig. 1), with InterLock (logic folded into routing blocks) close behind,
// Cross-Lock next (cascade-free MUX trees), LUT-Lock after that, and
// XOR/point-function schemes (RLL / SARLock / Anti-SAT / SFLL-HD) lowest.
//
// The grid is one cell per (scheme, circuit) pair, fanned out over the
// shared worker pool (--jobs N / FL_JOBS); the table averages each scheme
// over its circuits. --jsonl PATH / FL_JSONL logs each pair durably; an
// interrupted sweep continues with --resume (see EXPERIMENTS.md).
#include <atomic>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "attacks/oracle.h"
#include "bench/bench_util.h"
#include "cnf/miter.h"
#include "locking/scheme.h"
#include "netlist/profiles.h"
#include "runtime/jsonl.h"
#include "runtime/runner.h"
#include "runtime/seed.h"
#include "runtime/sweep.h"

namespace {

using fl::bench::TablePrinter;
using fl::core::LockedCircuit;
using fl::netlist::Netlist;

// One grid row per registry scheme. Key budget roughly equalized across
// schemes so the ratio comparison is about CNF *structure*, not key count;
// `routing_ladder` marks the wire-hungry schemes that fall back down the
// size ladder on small hosts.
struct SchemeSpec {
  const char* display;  // table label
  const char* name;     // registry name (lock::find_scheme)
  const char* params;   // canonical "key=value" options
  bool routing_ladder;  // retry shrinking `sizes` until the host fits
};

const std::vector<SchemeSpec>& schemes() {
  static const std::vector<SchemeSpec> s = {
      {"RLL", "rll", "keys=64", false},
      {"SARLock", "sarlock", "keys=16", false},
      {"Anti-SAT", "antisat", "inputs=16", false},
      {"SFLL-HD", "sfll-hd", "keys=16,hd=2", false},
      {"LUT-Lock", "lut-lock", "luts=24,prefer_small=0", false},
      {"Cross-Lock", "cross-lock", "", false},
      {"InterLock", "interlock", "", true},
      {"Full-Lock", "full-lock", "", true},
  };
  return s;
}

LockedCircuit lock_scheme(const SchemeSpec& spec, const Netlist& original,
                          std::uint64_t seed) {
  if (spec.routing_ladder) {
    // Resilient-class routing configuration; smaller hosts fall back down
    // the ladder until enough disjoint live wires exist.
    for (const std::vector<int>& sizes :
         {std::vector<int>{32, 16, 8}, {16, 16, 8}, {16, 8}, {8}}) {
      try {
        return fl::lock::lock_with(
            spec.name, original,
            fl::lock::make_options(seed, sizes, spec.params));
      } catch (const std::invalid_argument&) {
        continue;
      }
    }
    throw std::invalid_argument(std::string(spec.name) +
                                ": host too small for any ladder config");
  }
  // One lock per cell; one that does not fit its host fails the cell.
  return fl::lock::lock_with(
      spec.name, original,
      fl::lock::make_options(fl::runtime::derive_seed(seed, {0}), {},
                             spec.params));
}

std::vector<std::string> circuits() {
  if (fl::bench::quick_mode()) return {"c432"};
  return {"c432", "c499", "c880", "i4"};
}

struct Cell {
  std::size_t scheme;
  std::size_t circuit;
  std::uint64_t seed;
};

double run_cell(const SchemeSpec& scheme, const std::string& circuit,
                std::uint64_t seed) {
  const Netlist original = fl::netlist::make_circuit(circuit, 3);
  const LockedCircuit locked = lock_scheme(scheme, original, seed);
  // The CNF a MiniSAT-frontend attack tool works on mid-attack: miter
  // plus DIP-constraint copies, naively encoded (see
  // cnf::deobfuscation_cnf_ratio for the exact methodology).
  // Deep into an attack run (dozens of DIP copies) the per-copy gate
  // encoding dominates over the free key variables, as in the paper's
  // long 2e6 s runs.
  return fl::cnf::deobfuscation_cnf_ratio(locked.netlist, /*num_dips=*/64, 29);
}

void print_table(const std::vector<SchemeSpec>& specs,
                 const std::vector<double>& ratios) {
  const std::size_t per_scheme = circuits().size();
  TablePrinter table("Fig. 7 — average clauses/variables ratio during "
                     "deobfuscation");
  table.row({"scheme", "ratio"}, 14);
  for (std::size_t s = 0; s < specs.size(); ++s) {
    double sum = 0.0;
    for (std::size_t c = 0; c < per_scheme; ++c) {
      sum += ratios[s * per_scheme + c];
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f",
                  sum / static_cast<double>(per_scheme));
    table.row({specs[s].display, buf}, 14);
  }
  std::printf("(paper shape: Full-Lock and InterLock highest at ~3.8, "
              "Cross-Lock closest, XOR/point-function schemes lowest)\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const fl::runtime::RunnerArgs run_args =
        fl::bench::grid_runner_args(argc, argv);
    const std::uint64_t base = fl::bench::base_seed(13);
    const std::vector<std::string> circuit_names = circuits();

    std::vector<Cell> grid;
    for (std::size_t s = 0; s < schemes().size(); ++s) {
      for (std::size_t c = 0; c < circuit_names.size(); ++c) {
        grid.push_back({s, c,
                        fl::runtime::derive_seed(
                            base, {static_cast<std::uint64_t>(s),
                                   static_cast<std::uint64_t>(c)})});
      }
    }
    std::vector<double> ratios(grid.size(), 0.0);

    fl::runtime::SweepSession session("fig7", grid.size(), base, run_args);
    const auto record_base = [&](std::size_t i) {
      fl::runtime::JsonObject o;
      o.field("cell", i)
          .field("bench", "fig7")
          .field("scheme", schemes()[grid[i].scheme].name)
          .field("circuit", circuit_names[grid[i].circuit])
          .field("seed", grid[i].seed);
      return o;
    };

    std::printf("fig7: %zu cells on %d worker(s), %zu already done\n",
                grid.size(), run_args.jobs, session.num_resumed());
    const fl::runtime::GridReport report = fl::runtime::run_grid(
        grid.size(), session.grid_config(),
        [&](const fl::runtime::CellContext& ctx) {
          const std::size_t i = ctx.index;
          const Cell& cell = grid[i];
          ratios[i] = run_cell(schemes()[cell.scheme],
                               circuit_names[cell.circuit], cell.seed);
          // CNF-ratio cells have no interrupt hook; one that finished
          // after the signal writes no record so --resume re-runs it.
          if (ctx.interrupt != nullptr &&
              ctx.interrupt->load(std::memory_order_relaxed)) {
            session.note_interrupted(i);
            return;
          }
          if (session.sink() != nullptr) {
            fl::runtime::JsonObject o = record_base(i);
            o.field("clause_var_ratio", ratios[i]);
            session.sink()->write(i, o.str());
          }
        });

    print_table(schemes(), ratios);
    return session.finish(report, record_base);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

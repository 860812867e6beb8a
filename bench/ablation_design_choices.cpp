// Ablation bench (DESIGN.md §5): which Full-Lock ingredients buy the SAT
// hardness? One 16x16 PLR on c880, toggling one design choice at a time.
//
// Expected shape: LUT twisting is the largest single multiplier; shared
// SwB selects (half the key bits, permutation-only configs) measurably
// soften the instance; the inverter layer is cheap but contributes; the
// blocking topology collapses hardness at equal N.
#include <cstdio>
#include <exception>
#include <vector>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "bench/bench_util.h"
#include "core/full_lock.h"
#include "netlist/profiles.h"

namespace {

using fl::bench::TablePrinter;
using fl::core::ClnTopology;

struct Variant {
  const char* label;
  ClnTopology topology = ClnTopology::kBanyanNonBlocking;
  bool independent_selects = true;
  bool with_inverters = true;
  bool twist_luts = true;
  bool decompose_host = false;
};

const std::vector<Variant>& variants() {
  static const std::vector<Variant> v = {
      {"full (baseline)"},
      {"blocking topology", ClnTopology::kShuffleBlocking},
      {"shared SwB selects", ClnTopology::kBanyanNonBlocking, false},
      {"no inverter layer", ClnTopology::kBanyanNonBlocking, true, false},
      {"no LUT twisting", ClnTopology::kBanyanNonBlocking, true, true, false},
      {"2-input host", ClnTopology::kBanyanNonBlocking, true, true, true,
       true},
  };
  return v;
}

struct Cell {
  double seconds = 0.0;
  bool timed_out = false;
  bool refuted = false;  // a success whose key the proof refutes
  std::uint64_t decisions = 0;
  std::size_t key_bits = 0;
};

Cell run_variant(const Variant& variant, double timeout_s) {
  const fl::netlist::Netlist original = fl::netlist::make_circuit("c880", 17);
  fl::core::FullLockConfig config;
  fl::core::PlrConfig plr;
  plr.cln.n = fl::bench::quick_mode() ? 8 : 16;
  plr.cln.topology = variant.topology;
  plr.cln.independent_selects = variant.independent_selects;
  plr.cln.with_inverters = variant.with_inverters;
  plr.twist_luts = variant.twist_luts;
  plr.negate_probability = variant.with_inverters ? 0.5 : 0.0;
  config.plrs = {plr};
  config.decompose_two_input = variant.decompose_host;
  config.seed = 23;
  const fl::core::LockedCircuit locked = fl::core::full_lock(original, config);
  const fl::attacks::Oracle oracle(original);
  fl::attacks::AttackOptions options;
  options.timeout_s = timeout_s;
  fl::attacks::RunResult run =
      fl::attacks::run("sat", locked.netlist, oracle, options);
  fl::attacks::grade_key(run, original, locked.netlist);
  const fl::attacks::AttackResult& result = run.result;
  return {result.seconds,
          result.status == fl::attacks::AttackStatus::kTimeout,
          run.key_check == fl::core::KeyCheck::kRefuted,
          result.solver_stats.decisions, locked.key_bits()};
}

void print_table(const std::vector<Cell>& cells, double timeout_s) {
  TablePrinter table("Ablation — SAT attack vs Full-Lock design choices "
                     "(1 PLR on c880, TO = " +
                     std::to_string(timeout_s) + " s)");
  table.row({"variant", "key_bits", "attack_s", "solver_decisions"}, 22);
  for (std::size_t i = 0; i < variants().size(); ++i) {
    // A success whose key the proof refutes broke nothing.
    table.row({variants()[i].label, std::to_string(cells[i].key_bits),
               cells[i].refuted ? "refuted"
                                : fl::bench::fmt_time_or_to(cells[i].timed_out,
                                                            cells[i].seconds),
               std::to_string(cells[i].decisions)},
              22);
  }
}

}  // namespace

int main() {
  try {
    const double timeout_s = fl::bench::attack_timeout_s();
    std::vector<Cell> cells;
    for (const Variant& variant : variants()) {
      cells.push_back(run_variant(variant, timeout_s));
    }
    print_table(cells, timeout_s);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

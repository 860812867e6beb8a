// Fig. 6 walkthrough: PLR insertion in acyclic and cyclic modes on a small
// circuit, showing the selected wires, the negated leading gates, and the
// recovered functionality under the correct key.
//
//   $ ./example_plr_insertion
#include <cstdio>

#include "core/full_lock.h"
#include "core/insertion.h"
#include "core/verify.h"
#include "netlist/bench_io.h"
#include "netlist/generator.h"

using namespace fl;

namespace {

void demonstrate(core::CycleMode mode, const char* label) {
  std::printf("\n===== %s insertion (Fig. 6%s) =====\n", label,
              mode == core::CycleMode::kAvoid ? "b" : "c");
  netlist::GeneratorConfig gen;
  gen.num_inputs = 8;
  gen.num_outputs = 4;
  gen.num_gates = 17;  // matches the scale of the paper's g1..g17 example
  gen.seed = 206;
  const netlist::Netlist original = netlist::generate_circuit(gen);
  std::printf("original circuit:\n%s",
              netlist::write_bench_string(original).c_str());

  netlist::Netlist locked = original;
  core::PlrConfig config;
  config.cln.n = 4;
  config.cycle_mode = mode;
  config.negate_probability = 1.0;  // negate every negatable leading gate
  std::mt19937_64 rng(3);
  const core::PlrInsertion plr = core::insert_plr(locked, config, rng, "plr");

  std::printf("\nselected wires (CLN inputs):");
  for (std::size_t i = 0; i < plr.selected_wires.size(); ++i) {
    const netlist::GateId w = plr.selected_wires[i];
    const bool negated = locked.gate(w).type != original.gate(w).type;
    std::printf(" %s%s", original.gate(w).name.empty()
                             ? ("#" + std::to_string(w)).c_str()
                             : original.gate(w).name.c_str(),
                negated ? "(negated)" : "");
  }
  std::printf("\nnegated leading gates: %d, key-LUTs inserted: %d\n",
              plr.num_negated_drivers, plr.num_luts);
  std::printf("realized CLN routing (output j <- input perm[j]):");
  for (const int p : plr.hint.permutation) std::printf(" %d", p);
  std::printf("\nstructurally cyclic after insertion: %s\n",
              locked.is_cyclic() ? "yes" : "no");
  std::printf("correct key: %s\n",
              core::to_string(core::check_key(original, locked,
                                              plr.added_key_values)));
  std::printf("\nlocked circuit:\n%s",
              netlist::write_bench_string(locked).c_str());
}

}  // namespace

int main() {
  demonstrate(core::CycleMode::kAvoid, "acyclic");
  demonstrate(core::CycleMode::kForce, "cyclic");
  return 0;
}

// Figure 5: power/delay/area of STT-based LUTs (sizes 2..8) vs 2-input CMOS
// standard cells.
//
// Expected shape: LUT sizes 2..5 sit within the standard-cell cost band
// (negligible overhead); beyond 5 all three metrics take off — which is why
// Full-Lock caps LUT fan-in at 5 (§3.2).
#include <cstdio>

#include "bench/bench_util.h"
#include "ppa/stt_lut.h"

namespace {

using fl::bench::TablePrinter;
using fl::ppa::GateCost;

void print_table() {
  TablePrinter table("Fig. 5 — STT-LUT vs CMOS standard cells");
  table.row({"cell", "area_um2", "power_nW", "delay_ns", "area_ovh", "delay_ovh"},
            14);
  const auto emit_gate = [&](const char* label, fl::netlist::GateType type) {
    const GateCost c = fl::ppa::base_cell_cost(type);
    char area[32], power[32], delay[32];
    std::snprintf(area, sizeof(area), "%.2f", c.area_um2);
    std::snprintf(power, sizeof(power), "%.1f", c.power_nw);
    std::snprintf(delay, sizeof(delay), "%.3f", c.delay_ns);
    table.row({label, area, power, delay, "-", "-"}, 14);
  };
  emit_gate("NAND2 (CMOS)", fl::netlist::GateType::kNand);
  emit_gate("XOR2 (CMOS)", fl::netlist::GateType::kXor);
  emit_gate("MUX2 (CMOS)", fl::netlist::GateType::kMux);
  for (int k = 2; k <= 8; ++k) {
    const GateCost c = fl::ppa::stt_lut_cost(k);
    const fl::ppa::LutOverhead o = fl::ppa::stt_lut_overhead(k);
    char area[32], power[32], delay[32], aovh[32], dovh[32];
    std::snprintf(area, sizeof(area), "%.2f", c.area_um2);
    std::snprintf(power, sizeof(power), "%.1f", c.power_nw);
    std::snprintf(delay, sizeof(delay), "%.3f", c.delay_ns);
    std::snprintf(aovh, sizeof(aovh), "%+.0f%%", o.area * 100);
    std::snprintf(dovh, sizeof(dovh), "%+.0f%%", o.delay * 100);
    table.row({("STT-LUT" + std::to_string(k)).c_str(), area, power, delay,
               aovh, dovh},
              14);
  }
  std::printf("(paper shape: LUT2..LUT5 within the standard-cell band; "
              "LUT6+ costs take off)\n");
}

}  // namespace

int main() {
  print_table();
  return 0;
}

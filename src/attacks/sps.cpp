#include "attacks/sps.h"

#include <algorithm>
#include <cmath>

#include "netlist/structure.h"

namespace fl::attacks {

using netlist::GateId;

SpsReport sps_attack(const netlist::Netlist& locked, int top_k) {
  const std::vector<double> p = netlist::signal_probabilities(locked);

  // Key-dependent nets: transitive fanout of the key inputs.
  const std::vector<bool> key_dep = locked.fanout_cone(locked.keys());

  SpsReport report;
  std::vector<SkewedNet> nets;
  for (GateId g = 0; g < locked.num_gates(); ++g) {
    if (!key_dep[g] || netlist::is_source(locked.gate(g).type)) continue;
    const double skew = std::abs(p[g] - 0.5) * 2.0;
    nets.push_back(SkewedNet{g, p[g], skew});
    report.max_skew = std::max(report.max_skew, skew);
    report.mean_skew += skew;
  }
  if (!nets.empty()) report.mean_skew /= static_cast<double>(nets.size());
  std::sort(nets.begin(), nets.end(),
            [](const SkewedNet& a, const SkewedNet& b) {
              return a.skew > b.skew;
            });
  if (static_cast<int>(nets.size()) > top_k) nets.resize(top_k);
  report.top = std::move(nets);
  return report;
}

}  // namespace fl::attacks

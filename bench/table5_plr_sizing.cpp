// Table 5: smallest SAT-resilient locking configuration per benchmark.
//
// Every scheme is a registry entry (locking/scheme.h) with a configuration
// ladder: for each circuit the scheme escalates rung by rung until the
// attack times out at the scaled budget, and the first resilient rung is
// reported. The seed grid covers Full-Lock PLRs vs Cross-Lock 32x36
// crossbars (the paper's comparison) plus InterLock and SFLL-HD ladders.
// Expected shape: Full-Lock/InterLock reach resilience with fewer/smaller
// blocks than Cross-Lock (paper: e.g. apex4 needs 2x32x32 + 1x8x8 PLRs vs
// 11 32x36 crossbars); SFLL-HD resists the plain SAT attack at small key
// widths by construction (point function) but falls to FALL.
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "bench/bench_util.h"
#include "locking/scheme.h"
#include "netlist/profiles.h"
#include "runtime/seed.h"

namespace {

using fl::bench::TablePrinter;

std::vector<std::string> circuits() {
  if (fl::bench::quick_mode()) return {"c432"};
  return {"c432", "c499", "c880", "apex2", "i4"};
}

// One escalation rung: lock `repeat` times (accumulating key bits) with the
// given sizes/params. repeat > 1 models stacked Cross-Lock crossbars.
struct Rung {
  std::string label;
  int repeat = 1;
  std::vector<int> sizes;
  std::string params;
};

struct SchemeLadder {
  std::string display;  // table column
  std::string name;     // registry scheme name
  std::vector<Rung> rungs;
};

std::string ladder_label(const std::vector<int>& sizes) {
  std::map<int, int> counts;
  for (const int s : sizes) counts[s]++;
  std::string label;
  for (auto it = counts.rbegin(); it != counts.rend(); ++it) {
    if (!label.empty()) label += " + ";
    label += std::to_string(it->second) + "x" + std::to_string(it->first) +
             "x" + std::to_string(it->first);
  }
  return label;
}

// Routing ladders walk upward in total key material (paper configurations
// are sums of 8/16/32 CLNs).
std::vector<Rung> routing_rungs() {
  std::vector<Rung> rungs;
  for (const std::vector<int>& sizes :
       {std::vector<int>{8}, {16}, {16, 8}, {16, 16}, {16, 16, 8}, {32},
        {32, 16}, {32, 32}}) {
    rungs.push_back({ladder_label(sizes), 1, sizes, ""});
  }
  return rungs;
}

const std::vector<SchemeLadder>& ladders() {
  static const std::vector<SchemeLadder> all = [] {
    std::vector<SchemeLadder> l;
    l.push_back({"Full-Lock", "full-lock", routing_rungs()});
    l.push_back({"InterLock", "interlock", routing_rungs()});
    SchemeLadder cross{"Cross-Lock", "cross-lock", {}};
    for (int k = 1; k <= 6; ++k) {
      // k stacked 32x36 crossbars, applied with distinct sub-seeds.
      cross.rungs.push_back({std::to_string(k) + "x32x36", k, {}, ""});
    }
    l.push_back(std::move(cross));
    SchemeLadder sfll{"SFLL-HD", "sfll-hd", {}};
    for (const char* p : {"keys=8,hd=1", "keys=12,hd=2", "keys=16,hd=2",
                          "keys=16,hd=4"}) {
      sfll.rungs.push_back({p, 1, {}, p});
    }
    l.push_back(std::move(sfll));
    return l;
  }();
  return all;
}

// The SAT attack on one rung: "TO" when it times out, "refuted" when it
// ends on a key the proof refutes (which broke nothing either), and empty
// when it broke the lock.
std::string attack_rung(const fl::netlist::Netlist& original,
                        const fl::core::LockedCircuit& locked,
                        double timeout_s) {
  const fl::attacks::Oracle oracle(original);
  fl::attacks::AttackOptions options;
  options.timeout_s = timeout_s;
  fl::attacks::RunResult run =
      fl::attacks::run("sat", locked.netlist, oracle, options);
  if (run.result.status == fl::attacks::AttackStatus::kTimeout) return "TO";
  fl::attacks::grade_key(run, original, locked.netlist);
  return run.key_check == fl::core::KeyCheck::kRefuted ? "refuted" : "";
}

// Applies the rung: `repeat` registry locks stacked on one another, key
// material concatenated. Throws std::invalid_argument when the circuit
// cannot host the configuration (too few disjoint wires).
fl::core::LockedCircuit lock_rung(const SchemeLadder& ladder, const Rung& rung,
                                  const fl::netlist::Netlist& original,
                                  std::uint64_t seed) {
  fl::core::LockedCircuit acc;
  acc.netlist = original;
  acc.scheme = ladder.name;
  for (int i = 0; i < rung.repeat; ++i) {
    const fl::core::LockedCircuit step = fl::lock::lock_with(
        ladder.name, acc.netlist,
        fl::lock::make_options(
            fl::runtime::derive_seed(seed, {static_cast<std::uint64_t>(i)}),
            rung.sizes, rung.params));
    acc.netlist = step.netlist;
    acc.correct_key.insert(acc.correct_key.end(), step.correct_key.begin(),
                           step.correct_key.end());
    acc.params = step.params;
  }
  return acc;
}

// The first resilient rung, "<rung> (refuted)" when the attack first fails
// on a refuted key, "broken thru <last attacked rung>", or "n/a" when no
// rung fits the circuit.
std::string run_ladder(const SchemeLadder& ladder, const std::string& circuit,
                       double timeout_s) {
  std::string config = "n/a";
  const fl::netlist::Netlist original = fl::netlist::make_circuit(circuit, 1);
  for (const Rung& rung : ladder.rungs) {
    fl::core::LockedCircuit locked;
    try {
      locked = lock_rung(ladder, rung, original, 5);
    } catch (const std::invalid_argument&) {
      continue;  // circuit too small for this rung
    }
    const std::string outcome = attack_rung(original, locked, timeout_s);
    if (outcome == "TO") return rung.label;
    if (outcome == "refuted") return rung.label + " (refuted)";
    config = "broken thru " + rung.label;
  }
  return config;
}

// configs[ladder][circuit]
void print_table(const std::vector<std::vector<std::string>>& configs,
                 double timeout_s) {
  char title[96];
  std::snprintf(title, sizeof(title),
                "Table 5 — smallest SAT-resilient configuration (TO = %g s)",
                timeout_s);
  TablePrinter table(title);
  std::vector<std::string> header = {"circuit", "gates"};
  for (const SchemeLadder& ladder : ladders()) header.push_back(ladder.display);
  table.row(header, 20);
  const std::vector<std::string> names = circuits();
  for (std::size_t ci = 0; ci < names.size(); ++ci) {
    const auto profile = fl::netlist::find_profile(names[ci]);
    std::vector<std::string> row = {names[ci],
                                    std::to_string(profile->num_gates)};
    for (const std::vector<std::string>& ladder : configs) {
      row.push_back(ladder[ci]);
    }
    table.row(row, 20);
  }
  std::printf("(paper shape: Full-Lock reaches SAT resilience with smaller/"
              "fewer blocks than Cross-Lock on every circuit; SFLL-HD's "
              "point function stalls the SAT attack at tiny key widths but "
              "falls to the FALL attack instead)\n");
}

}  // namespace

int main() {
  try {
    const double timeout_s = fl::bench::attack_timeout_s();
    std::vector<std::vector<std::string>> configs;
    for (const SchemeLadder& ladder : ladders()) {
      std::vector<std::string>& row = configs.emplace_back();
      for (const std::string& circuit : circuits()) {
        row.push_back(run_ladder(ladder, circuit, timeout_s));
      }
    }
    print_table(configs, timeout_s);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

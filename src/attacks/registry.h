// The one way to run an oracle-guided attack.
//
// The CLI's attack subcommand, the sweep (attacks/sweep.h), the serve job
// runners, the table drivers, the examples and the tests all choose their
// attack from a string ("auto", "sat", "cycsat", "appsat", "double-dip",
// "fall"). run() is the one place that maps such a name onto an attack: a
// table of functions over the locked netlist and the oracle, so no attack
// ever sees the correct key or the routing hints. It resolves "auto" (and
// Double-DIP on cyclic locks) through lock::resolve_attack, runs the
// attack, and reports
//   * the resolved name,
//   * a uniform AttackResult (FALL, which has no DIP loop, is mapped onto
//     it here and nowhere else), and
//   * a `detail` block with the extras only one attack has — AppSAT's
//     estimated error, Double-DIP's mop-up count, FALL's restore-unit
//     statistics — plus every attack's `key_confirmed`.
// to_json(RunResult) is the one attack record every writer emits.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "attacks/engine.h"
#include "core/verify.h"
#include "runtime/jsonl.h"

namespace fl::attacks {

struct RunResult {
  std::string attack;  // resolved name: never "auto"
  AttackResult result;
  // Attack-specific fields (only key_confirmed for sat and cycsat):
  //   appsat      estimated_error
  //   double-dip  fallback_iterations
  //   fall        restore_identified, protected_bits, error_patterns,
  //               candidates_tested, stripped_error_rate, and hd when a key
  //               was recovered
  runtime::JsonObject detail;
  // Set by grade_key on a success or an approximate key: core::check_key's
  // verdict and its wall time. Empty on every other status.
  std::optional<core::KeyCheck> key_check = std::nullopt;
  double key_check_seconds = 0.0;
};

// "auto, sat, cycsat, appsat, double-dip, fall" — for usage text and errors.
std::string attack_names();
bool known_attack(std::string_view name);

// Runs the named attack on `locked`. FALL ignores `options` (it has no DIP
// loop or budget) and reports iterations = 0, oracle_queries = the oracle's
// query counter delta, and a key sized to the key width even when it fails.
// Throws std::invalid_argument naming attack_names() for unknown names.
RunResult run(std::string_view name, const netlist::Netlist& locked,
              const Oracle& oracle, const AttackOptions& options = {});

// Grades a success or approximate key against the circuit the oracle runs
// with core::check_key, and times it. Every record writer calls it before
// to_json: the grade belongs to the harness that holds that circuit, not
// to the attack.
void grade_key(RunResult& run, const netlist::Netlist& original,
               const netlist::Netlist& locked);

// The attack block of every JSONL record that reports an attack (schema in
// EXPERIMENTS.md): `attack`, the deterministic AttackResult fields, the
// `detail` block, `key_check` ("none" when ungraded), then the wall-clock
// fields. Their `_s` suffix marks them as the only fields two runs of one
// seed grid may disagree on, and they come last.
runtime::JsonObject to_json(const RunResult& run);

}  // namespace fl::attacks

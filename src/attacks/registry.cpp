#include "attacks/registry.h"

#include <chrono>
#include <stdexcept>

#include "attacks/appsat.h"
#include "attacks/double_dip.h"
#include "attacks/fall.h"
#include "attacks/sat_attack.h"
#include "locking/scheme.h"

namespace fl::attacks {

namespace {

using Runner = RunResult (*)(const netlist::Netlist&, const Oracle&,
                             const AttackOptions&);

// FALL has no DIP loop: it counts no iterations, and its oracle use is
// whatever the oracle's query counter saw.
RunResult run_fall(const netlist::Netlist& locked, const Oracle& oracle,
                   const AttackOptions&) {
  using Clock = std::chrono::steady_clock;
  const std::uint64_t queries_before = oracle.num_queries();
  const Clock::time_point start = Clock::now();
  const FallResult fall = fall_attack(locked, oracle);
  RunResult run{"fall", {}, {}};
  AttackResult& result = run.result;
  result.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  result.status = fall.key_recovered ? AttackStatus::kSuccess
                                     : AttackStatus::kIterationLimit;
  result.key = fall.key;
  if (result.key.empty()) result.key.assign(locked.num_keys(), false);
  result.oracle_queries = oracle.num_queries() - queries_before;
  run.detail.field("restore_identified", fall.restore_identified)
      .field("protected_bits", fall.protected_bits)
      .field("error_patterns", fall.error_patterns)
      .field("candidates_tested", fall.candidates_tested)
      .field("stripped_error_rate", fall.stripped_error_rate);
  if (fall.key_recovered) run.detail.field("hd", fall.hd);
  return run;
}

struct Entry {
  std::string_view name;
  Runner run;
};

// "auto" is not an entry: run() resolves it before the lookup.
constexpr Entry kAttacks[] = {
    {"sat", sat_attack},
    {"cycsat", cycsat_attack},
    {"appsat", appsat_attack},
    {"double-dip", double_dip_attack},
    {"fall", run_fall},
};

const Entry* find_attack(std::string_view name) {
  for (const Entry& entry : kAttacks) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace

std::string attack_names() {
  std::string names = "auto";
  for (const Entry& entry : kAttacks) {
    names += ", ";
    names += entry.name;
  }
  return names;
}

bool known_attack(std::string_view name) {
  return name == "auto" || find_attack(name) != nullptr;
}

RunResult run(std::string_view name, const netlist::Netlist& locked,
              const Oracle& oracle, const AttackOptions& options) {
  const Entry* entry =
      find_attack(lock::resolve_attack(name, locked.is_cyclic()));
  if (entry == nullptr) {
    throw std::invalid_argument("unknown attack '" + std::string(name) +
                                "' (known: " + attack_names() + ")");
  }
  RunResult run = entry->run(locked, oracle, options);
  run.detail.field("key_confirmed", run.result.key_confirmed);
  return run;
}

void grade_key(RunResult& run, const netlist::Netlist& original,
               const netlist::Netlist& locked) {
  if (run.result.status != AttackStatus::kSuccess &&
      run.result.status != AttackStatus::kApproximate) {
    return;
  }
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  run.key_check = core::check_key(original, locked, run.result.key);
  run.key_check_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
}

runtime::JsonObject to_json(const RunResult& run) {
  const AttackResult& r = run.result;
  const sat::SolverStats& st = r.solver_stats;
  const sat::PreprocessStats& pp = r.preprocess;
  runtime::JsonObject o;
  o.field("attack", run.attack)
      .field("status", to_string(r.status))
      .field("stop_reason", sat::to_string(r.stop_reason))
      .field("iterations", r.iterations)
      .field("mean_clause_var_ratio", r.mean_clause_var_ratio)
      .field("oracle_queries", r.oracle_queries)
      .field("banned_keys", r.banned_keys)
      .field("decisions", st.decisions)
      .field("propagations", st.propagations)
      .field("binary_propagations", st.binary_propagations)
      .field("conflicts", st.conflicts)
      .field("restarts", st.restarts)
      .field("learned_clauses", st.learned_clauses)
      .field("learned_binary", st.learned_binary)
      .field("glue_learned", st.glue_learned)
      .field("max_lbd", st.max_lbd)
      .field("promoted_clauses", st.promoted_clauses)
      .field("removed_clauses", st.removed_clauses)
      .field("db_size_after_reduce", st.db_size_after_reduce)
      .field("simplify_removed_clauses", st.simplify_removed_clauses)
      .field("cone_encoding", r.cone_encoding)
      .field("base_clauses", r.base_clauses)
      .field("base_vars", r.base_vars)
      .field("clauses_added", r.clauses_added)
      .field("vars_added", r.vars_added)
      .field("pp_ran", pp.ran)
      .field("pp_input_clauses", pp.input_clauses)
      .field("pp_output_clauses", pp.output_clauses)
      .field("pp_fixed_vars", pp.fixed_vars)
      .field("pp_eliminated_vars", pp.eliminated_vars)
      .field("pp_subsumed_clauses", pp.subsumed_clauses)
      .field("pp_strengthened_literals", pp.strengthened_literals)
      .merge(run.detail)
      .field("key_check",
             run.key_check ? core::to_string(*run.key_check) : "none")
      .field("mean_iteration_s", r.mean_iteration_seconds)
      .field("encode_s", r.encode_seconds)
      .field("preprocess_s", pp.preprocess_s)
      .field("wall_s", r.seconds)
      .field("key_check_s", run.key_check_seconds);
  return o;
}

}  // namespace fl::attacks

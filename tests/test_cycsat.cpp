// CycSAT: attacking cyclically locked circuits.
#include <gtest/gtest.h>

#include <string>

#include "attacks/cycsat.h"
#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "cnf/miter.h"
#include "core/full_lock.h"
#include "netlist/profiles.h"

namespace fl::attacks {
namespace {

using core::CycleMode;
using core::LockedCircuit;
using netlist::Netlist;

LockedCircuit cyclic_lock(const Netlist& original, int n, std::uint64_t seed) {
  core::FullLockConfig config = core::FullLockConfig::with_plrs(
      {n}, core::ClnTopology::kBanyanNonBlocking, CycleMode::kForce);
  config.seed = seed;
  return core::full_lock(original, config);
}

// The attack record without its wall-clock (`_s`) fields and its name.
std::string record_without_times(RunResult run) {
  const std::string line = to_json(run).str();
  std::string out;
  std::size_t from = line.find(',') + 1;  // past "attack"
  while (from < line.size()) {
    std::size_t to = line.find(',', from);
    if (to == std::string::npos) to = line.size();
    const std::string field = line.substr(from, to - from);
    if (field.find("_s\":") == std::string::npos) out += field + ",";
    from = to + 1;
  }
  return out;
}

TEST(CycSat, BreaksCyclicFullLockSmall) {
  const Netlist original = netlist::make_circuit("c432", 101);
  const LockedCircuit locked = cyclic_lock(original, 4, 7);
  ASSERT_TRUE(locked.netlist.is_cyclic());
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 120.0;
  const AttackResult result =
      attacks::run("cycsat", locked.netlist, oracle, options).result;
  ASSERT_EQ(result.status, AttackStatus::kSuccess);
  // The recovered key cuts every cycle, so it is proved, not sampled.
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist, result.key));
  // The no-cycle conditions went into the base miter: one DIP of the plain
  // SAT attack shows the same miter without them.
  options.max_iterations = 1;
  const AttackResult sat =
      attacks::run("sat", locked.netlist, oracle, options).result;
  EXPECT_GT(result.base_clauses, sat.base_clauses);
}

TEST(CycSat, NcConditionsAdmitCorrectKey) {
  // The NC preprocessing must never exclude the correct key: assert the
  // conditions, pin the correct key, and the formula stays satisfiable.
  const Netlist original = netlist::make_circuit("c880", 102);
  const LockedCircuit locked = cyclic_lock(original, 8, 9);
  ASSERT_TRUE(locked.netlist.is_cyclic());

  sat::Solver solver;
  std::vector<sat::Var> key1, key2;
  for (std::size_t i = 0; i < locked.key_bits(); ++i) key1.push_back(solver.new_var());
  for (std::size_t i = 0; i < locked.key_bits(); ++i) key2.push_back(solver.new_var());
  EXPECT_GT(add_nc_conditions(locked.netlist, solver, key1, key2), 0);
  std::vector<sat::Lit> assume;
  for (std::size_t i = 0; i < locked.key_bits(); ++i) {
    assume.push_back(sat::Lit(key1[i], !locked.correct_key[i]));
    assume.push_back(sat::Lit(key2[i], !locked.correct_key[i]));
  }
  EXPECT_EQ(solver.solve(assume), sat::LBool::kTrue);
}

TEST(CycSat, AcyclicPreprocessIsNoop) {
  // With no feedback edge there is no condition to add, so CycSAT is the
  // SAT attack: the same record in every field that is not a time.
  const Netlist original = netlist::make_circuit("c432", 103);
  const LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({4}));
  ASSERT_FALSE(locked.netlist.is_cyclic());
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 60.0;
  const RunResult cycsat =
      attacks::run("cycsat", locked.netlist, oracle, options);
  EXPECT_EQ(cycsat.result.status, AttackStatus::kSuccess);
  const RunResult sat = attacks::run("sat", locked.netlist, oracle, options);
  EXPECT_EQ(record_without_times(cycsat), record_without_times(sat));
}

TEST(CycSat, PlainSatAttackStruggleOnCycles) {
  // Without NC clauses the plain attack can settle on a cycle-latching
  // key; CycSAT's recovered key must be functionally correct while being
  // found with the same budget.
  const Netlist original = netlist::make_circuit("c499", 104);
  const LockedCircuit locked = cyclic_lock(original, 4, 11);
  ASSERT_TRUE(locked.netlist.is_cyclic());
  const Oracle oracle(original);
  AttackOptions options;
  options.timeout_s = 120.0;
  const AttackResult cyc =
      attacks::run("cycsat", locked.netlist, oracle, options).result;
  ASSERT_EQ(cyc.status, AttackStatus::kSuccess);
  EXPECT_TRUE(cnf::check_equivalence(original, {}, locked.netlist, cyc.key));
}

}  // namespace
}  // namespace fl::attacks

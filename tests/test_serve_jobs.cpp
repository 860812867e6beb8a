// End-to-end through the serve daemon's production job runners (below the
// socket/scheduler): a lock job writes scheme provenance the attack job
// recovers, the FALL runner defeats SFLL-HD from files alone, an attack
// job's trace events are the --trace file's records, and sweep records
// carry the scheme axis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "attacks/registry.h"
#include "cnf/miter.h"
#include "core/verify.h"
#include "locking/scheme.h"
#include "netlist/bench_io.h"
#include "netlist/profiles.h"
#include "runtime/jsonl.h"
#include "serve/jobs.h"
#include "serve/protocol.h"

namespace fl::serve {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

// Runs a spec through the production runner with a collecting context.
std::string run_job(const JobSpec& spec,
                    std::vector<std::string>* events = nullptr) {
  JobContext context;
  context.id = 1;
  context.emit = [events](const char* type, runtime::JsonObject payload) {
    if (events != nullptr) {
      events->push_back(std::string(type) + " " + payload.str());
    }
  };
  JobResult result = default_job_runner()(spec, context);
  EXPECT_FALSE(result.interrupted);
  return result.fields.str();
}

TEST(ServeJobs, LockThenAttackKeepsSchemeProvenance) {
  const netlist::Netlist original = netlist::make_circuit("c432", 1);
  const std::string bench = temp_path("jobs_c432.bench");
  netlist::write_bench_file(original, bench);

  JobSpec lock;
  lock.kind = JobKind::kLock;
  lock.bench_path = bench;
  lock.out_path = temp_path("jobs_locked.bench");
  lock.scheme = "sfll-hd";
  lock.scheme_params = "keys=8,hd=1";
  lock.seed = 7;
  validate_spec(lock);
  const std::string lock_fields = run_job(lock);
  EXPECT_NE(lock_fields.find("\"scheme\":\"sfll-hd\""), std::string::npos)
      << lock_fields;

  // Provenance round-trips through the .bench header, never "file".
  const core::LockedCircuit reloaded =
      lock::read_locked_circuit(lock.out_path);
  EXPECT_EQ(reloaded.scheme, "sfll-hd");
  EXPECT_FALSE(reloaded.params.empty());

  JobSpec attack;
  attack.kind = JobKind::kAttack;
  attack.locked_path = lock.out_path;
  attack.oracle_path = bench;
  attack.attack = "fall";
  validate_spec(attack);
  const std::string attack_fields = run_job(attack);
  EXPECT_NE(attack_fields.find("\"scheme\":\"sfll-hd\""), std::string::npos)
      << attack_fields;
  EXPECT_NE(attack_fields.find("\"status\":\"success\""), std::string::npos)
      << attack_fields;
  const std::optional<std::string> key =
      runtime::json_string_field(attack_fields, "key");
  ASSERT_TRUE(key.has_value());
  ASSERT_EQ(key->size(), 8u);
  std::vector<bool> key_bits;
  for (const char c : *key) key_bits.push_back(c == '1');
  EXPECT_TRUE(cnf::check_equivalence(original, {}, reloaded.netlist, key_bits));
}

// JSONL records with every wall-clock (`_s`) value masked: what two runs of
// one deterministic attack must agree on, field for field.
std::string mask_seconds(const std::string& records) {
  static const std::regex seconds(R"re(("[a-z_]+_s":)[^,}]+)re");
  return std::regex_replace(records, seconds, "$1_");
}

TEST(ServeJobs, AttackTraceEventsAreTheTraceFileRecords) {
  // A traced attack job streams one "trace" event per DIP iteration, each
  // the record `attack --trace` writes for that iteration.
  const netlist::Netlist original = netlist::make_circuit("c432", 1);
  JobSpec attack;
  attack.kind = JobKind::kAttack;
  attack.locked_path = temp_path("jobs_trace_locked.bench");
  attack.oracle_path = temp_path("jobs_trace_c432.bench");
  attack.attack = "sat";
  attack.trace = true;
  netlist::write_bench_file(original, attack.oracle_path);
  lock::write_locked_circuit(
      lock::lock_with("sarlock", original, lock::make_options(3, {}, "keys=6")),
      attack.locked_path);
  std::vector<std::string> events;
  const std::string fields = run_job(attack, &events);
  std::string streamed;
  for (const std::string& event : events) {
    if (event.starts_with("trace ")) streamed += event.substr(6) + "\n";
  }

  std::ostringstream file;
  attacks::JsonlTraceSink sink(file);
  attacks::AttackOptions options;
  options.trace = &sink;
  const attacks::AttackResult result =
      attacks::run("sat", lock::read_locked_circuit(attack.locked_path),
                   attacks::Oracle(original), options)
          .result;
  ASSERT_GT(result.iterations, 0u);
  EXPECT_NE(fields.find("\"iterations\":" +
                        std::to_string(result.iterations) + ","),
            std::string::npos)
      << fields;
  // The record says how the attack ended: SARLock always leaves a
  // candidate key, so the loop ends on confirmation.
  EXPECT_EQ(runtime::json_bool_field(fields, "key_confirmed"), true)
      << fields;
  EXPECT_EQ(std::count(streamed.begin(), streamed.end(), '\n'),
            static_cast<std::ptrdiff_t>(result.iterations));
  EXPECT_EQ(mask_seconds(streamed), mask_seconds(file.str()));
}

TEST(ServeJobs, SweepRecordsCarryTheSchemeAxis) {
  const netlist::Netlist original = netlist::make_circuit("c432", 1);
  const std::string bench = temp_path("jobs_sweep_c432.bench");
  netlist::write_bench_file(original, bench);

  JobSpec sweep;
  sweep.kind = JobKind::kSweep;
  sweep.bench_path = bench;
  sweep.jsonl_path = temp_path("jobs_sweep.jsonl");
  sweep.scheme = "rll";
  sweep.scheme_params = "keys=12";
  sweep.sizes = {4};
  sweep.replicas = 1;
  sweep.attack = "sat";
  sweep.attack_timeout_s = 60.0;
  validate_spec(sweep);
  std::vector<std::string> events;
  const std::string fields = run_job(sweep, &events);
  EXPECT_NE(fields.find("\"cells\":1"), std::string::npos) << fields;

  // Both the durable JSONL checkpoint and the streamed cell event carry the
  // scheme so downstream analysis can group by it.
  std::ifstream jsonl(sweep.jsonl_path);
  ASSERT_TRUE(jsonl.good());
  std::string line;
  bool found_record = false;
  while (std::getline(jsonl, line)) {
    if (line.find("\"scheme\":\"rll\"") != std::string::npos) {
      found_record = true;
    }
  }
  EXPECT_TRUE(found_record);
  bool found_event = false;
  for (const std::string& event : events) {
    if (event.rfind("cell ", 0) == 0 &&
        event.find("\"scheme\":\"rll\"") != std::string::npos) {
      found_event = true;
    }
  }
  EXPECT_TRUE(found_event);
}

}  // namespace
}  // namespace fl::serve

// End-to-end through the serve daemon's production job runners (below the
// socket): a lock job writes scheme provenance the attack job recovers, the
// FALL runner defeats SFLL-HD from files alone, an attack job's trace
// events are the --trace file's records, sweep records carry the scheme
// axis, and a sweep job with a failed cell fails, also when resumed.
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
#include "runtime/fault.h"
#include "runtime/jsonl.h"
#include "runtime/seed.h"
#include "serve/jobs.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"

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
  // The terminal event carries the daemon's own proof of the key.
  EXPECT_NE(attack_fields.find("\"key_check\":\"proved\""),
            std::string::npos)
      << attack_fields;
  const std::optional<std::string> key =
      runtime::json_string_field(attack_fields, "key");
  ASSERT_TRUE(key.has_value());
  ASSERT_EQ(key->size(), 8u);
  std::vector<bool> key_bits;
  for (const char c : *key) key_bits.push_back(c == '1');
  EXPECT_TRUE(cnf::check_equivalence(original, {}, reloaded.netlist, key_bits));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ServeJobs, LockJobWritesWhatTheLibraryLockWrites) {
  // A lock job without sizes locks at the scheme's own default, as
  // `fulllock lock` does, and writes the same .bench, .key and .v.
  const std::string bench = temp_path("jobs_rll_c432.bench");
  netlist::write_bench_file(netlist::make_circuit("c432", 1), bench);

  JobSpec lock;
  lock.kind = JobKind::kLock;
  lock.bench_path = bench;
  lock.out_path = temp_path("jobs_rll_job.bench");
  lock.scheme = "rll";
  lock.seed = 7;
  validate_spec(lock);
  run_job(lock);

  // The circuit as the job reads it (its name comes from the file).
  const netlist::Netlist read = netlist::read_bench_file(bench);
  const std::string expected = temp_path("jobs_rll_library.bench");
  lock::write_locked_circuit(
      lock::lock_with("rll", read, lock::make_options(7)), expected);
  for (const char* suffix : {"", ".key", ".v"}) {
    const std::string written = read_file(lock.out_path + suffix);
    EXPECT_FALSE(written.empty()) << suffix;
    EXPECT_EQ(written, read_file(expected + suffix)) << suffix;
  }
  EXPECT_NE(read_file(lock.out_path).find("# lock-params: keys=32"),
            std::string::npos);
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
      attacks::run("sat",
                   lock::read_locked_circuit(attack.locked_path).netlist,
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

TEST(ServeJobs, ResumedSweepKeepsTheCheckpointsSeeds) {
  // A daemon upgraded mid-sweep replays the journal and resumes the old
  // daemon's checkpoint: header and cell 0 below are verbatim what the
  // earlier serve sweep wrote. The cells it adds must be the ones that
  // checkpoint began with, at derive_seed(seed, {size, replica}).
  const std::string bench = temp_path("jobs_replay_c432.bench");
  netlist::write_bench_file(netlist::make_circuit("c432", 1), bench);
  const std::string checkpoint =
      "{\"record\":\"run_header\",\"bench\":\"serve_sweep\","
      "\"grid_cells\":3,\"base_seed\":17}\n"
      "{\"cell\":0,\"bench\":\"serve_sweep\",\"circuit\":"
      "\"jobs_replay_c432.bench\",\"scheme\":\"rll\",\"plr_size\":4,"
      "\"replica\":0,\"seed\":1975475462755043301,\"key_bits\":8,"
      "\"cyclic\":false,\"attack\":\"sat\",\"status\":\"success\","
      "\"iterations\":3,\"mean_clause_var_ratio\":2.2222222222222223,"
      "\"oracle_queries\":3,\"key_confirmed\":true,"
      "\"mean_iteration_s\":0.00015885366666666667,"
      "\"wall_s\":0.001749474}\n";
  JobSpec sweep;
  sweep.kind = JobKind::kSweep;
  sweep.bench_path = bench;
  sweep.jsonl_path = temp_path("jobs_replay.jsonl");
  std::ofstream(sweep.jsonl_path) << checkpoint;
  sweep.scheme = "rll";
  sweep.scheme_params = "keys=8";
  sweep.sizes = {4};
  sweep.replicas = 3;
  sweep.seed = 17;
  sweep.attack = "sat";
  sweep.resume = true;
  validate_spec(sweep);
  std::vector<std::string> events;
  const std::string fields = run_job(sweep, &events);
  EXPECT_NE(fields.find("\"cells_resumed\":1"), std::string::npos) << fields;

  std::ifstream in(sweep.jsonl_path);
  std::ostringstream text;
  text << in.rdbuf();
  ASSERT_EQ(text.str().compare(0, checkpoint.size(), checkpoint), 0)
      << text.str();
  std::istringstream added(text.str().substr(checkpoint.size()));
  std::vector<std::string> cells;
  for (std::string line; std::getline(added, line);) cells.push_back(line);
  ASSERT_EQ(cells.size(), 2u) << text.str();
  for (int r = 1; r <= 2; ++r) {
    const std::string& line = cells[r - 1];
    EXPECT_EQ(runtime::json_int_field(line, "cell"), r) << line;
    const std::uint64_t seed =
        runtime::derive_seed(17, {4, static_cast<std::uint64_t>(r)});
    EXPECT_NE(line.find("\"seed\":" + std::to_string(seed) + ","),
              std::string::npos)
        << line;
    // The streamed cell event is the durable record itself.
    EXPECT_NE(std::find(events.begin(), events.end(), "cell " + line),
              events.end())
        << line;
  }
}

// Runs one request line on a scheduler with the production runner and
// returns the job's events, in order (one worker), the terminal one last.
std::vector<JobEvent> run_request(const std::string& line,
                                  const runtime::FaultInjector& faults) {
  SchedulerConfig config;
  config.faults = &faults;
  std::vector<JobEvent> events;
  {
    Scheduler scheduler(config, default_job_runner());
    std::string reject;
    EXPECT_NE(scheduler.submit(
                  parse_request(line).spec,
                  [&events](const JobEvent& e) { events.push_back(e); },
                  &reject),
              0u)
        << reject;
    scheduler.wait_idle();
  }  // the drain waits for the worker, so every event has been delivered
  return events;
}

TEST(ServeJobs, SweepJobWithAFailedCellFailsAndStaysFailedOnResume) {
  // The job's only cell throws: the job runs once and ends failed, its
  // checkpoint holding the header and the cell's failure record. The same
  // job with resume: true skips the cell, appends nothing and fails again.
  // The request carries the removed retries field, which is ignored.
  const std::string bench = temp_path("jobs_failed_c432.bench");
  netlist::write_bench_file(netlist::make_circuit("c432", 1), bench);
  const std::string jsonl = temp_path("jobs_failed.jsonl");
  const auto faults = runtime::FaultInjector::parse("cell:0:throw");
  const std::string request =
      "{\"op\":\"submit\",\"kind\":\"sweep\",\"bench_path\":\"" + bench +
      "\",\"jsonl_path\":\"" + jsonl + "\",\"scheme\":\"rll\",\"sizes\":[4],"
      "\"attack\":\"sat\",\"retries\":1,\"resume\":";
  std::string checkpoint;
  for (const char* resume : {"false}", "true}"}) {
    const std::vector<JobEvent> events = run_request(request + resume, faults);
    ASSERT_EQ(events.size(), 2u);  // no retry and no cell event
    EXPECT_EQ(events[0].line, "{\"event\":\"started\",\"id\":1}");
    EXPECT_EQ(events[1].state, JobState::kFailed) << events[1].line;
    EXPECT_EQ(events[1].line.find("attempts"), std::string::npos);
    if (checkpoint.empty()) checkpoint = read_file(jsonl);
    EXPECT_EQ(read_file(jsonl), checkpoint) << resume;
  }
  EXPECT_EQ(std::count(checkpoint.begin(), checkpoint.end(), '\n'), 2);
  EXPECT_NE(checkpoint.find("\"cell\":0,"), std::string::npos);
  EXPECT_NE(checkpoint.find("\"status\":\"failed\""), std::string::npos);
}

}  // namespace
}  // namespace fl::serve

// Parallel sweep runtime: thread pool, seed derivation, cancellation, JSONL
// sink ordering, runner arg parsing and validation, fault injection, per-cell
// fault isolation, signal handling, and the serial-vs-parallel determinism
// guarantee (run under TSan in the sanitizer CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <regex>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "attacks/oracle.h"
#include "attacks/registry.h"
#include "attacks/sweep.h"
#include "core/full_lock.h"
#include "netlist/generator.h"
#include "runtime/cancel.h"
#include "runtime/fault.h"
#include "runtime/jsonl.h"
#include "runtime/runner.h"
#include "runtime/seed.h"
#include "runtime/signal.h"
#include "runtime/thread_pool.h"

namespace fl::runtime {
namespace {

TEST(Seed, SplitMixIsDeterministicAndMixes) {
  EXPECT_EQ(splitmix64(0), splitmix64(0));
  EXPECT_NE(splitmix64(0), splitmix64(1));
  // Full-avalanche sanity: consecutive inputs land far apart.
  EXPECT_GT(splitmix64(1) ^ splitmix64(2), 0xFFFFFFFFull);
}

TEST(Seed, DeriveSeedIsCoordinateAndOrderSensitive) {
  const std::uint64_t a = derive_seed(7, {1, 2});
  EXPECT_EQ(a, derive_seed(7, {1, 2}));    // pure function of coordinates
  EXPECT_NE(a, derive_seed(7, {2, 1}));    // order matters
  EXPECT_NE(a, derive_seed(8, {1, 2}));    // base matters
  EXPECT_NE(a, derive_seed(7, {1, 2, 0}));  // arity matters
}

TEST(ThreadPool, RunsEveryJobAndWaitsIdle) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  // Pool stays usable after wait_idle.
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

// A grid on `jobs` workers with no cancellation or resume mask.
GridConfig jobs_config(int jobs) {
  GridConfig config;
  config.jobs = jobs;
  return config;
}

TEST(Runner, SerialAndParallelGridsProduceIdenticalResults) {
  const std::size_t n = 64;
  const auto cell = [](std::size_t i) {
    return derive_seed(3, {static_cast<std::uint64_t>(i)});
  };
  std::vector<std::uint64_t> serial(n, 0), parallel(n, 0);
  run_grid(n, jobs_config(1), [&](const CellContext& ctx) {
    serial[ctx.index] = cell(ctx.index);
  });
  run_grid(n, jobs_config(4), [&](const CellContext& ctx) {
    parallel[ctx.index] = cell(ctx.index);
  });
  EXPECT_EQ(serial, parallel);
}

TEST(Runner, FailingCellIsRecordedAndTheGridDrains) {
  for (const int jobs : {1, 4}) {
    std::vector<std::atomic<int>> runs(8);
    const GridReport report =
        run_grid(8, jobs_config(jobs), [&](const CellContext& ctx) {
          runs[ctx.index].fetch_add(1);
          if (ctx.index == 3) throw std::runtime_error("cell 3 failed");
        });
    for (const auto& n : runs) EXPECT_EQ(n.load(), 1) << jobs;  // once each
    EXPECT_EQ(report.failed, 1u) << jobs;
    EXPECT_EQ(report.ok, 7u) << jobs;
    EXPECT_EQ(report.cells[3].status, CellOutcome::Status::kFailed) << jobs;
    EXPECT_EQ(report.cells[3].error, "cell 3 failed") << jobs;
  }
}

TEST(Runner, ResolveJobsPrecedence) {
  EXPECT_EQ(resolve_jobs(3), 3);  // explicit request wins
  ::setenv("FL_JOBS", "5", 1);
  EXPECT_EQ(resolve_jobs(0), 5);
  EXPECT_EQ(resolve_jobs(2), 2);
  ::unsetenv("FL_JOBS");
  EXPECT_GE(resolve_jobs(0), 1);  // hardware fallback, always at least 1
}

TEST(Runner, ParseRunnerArgsStripsFlagsKeepsPositionals) {
  const char* raw[] = {"prog", "attack",       "--jobs", "7", "a.bench",
                       "--jsonl=out.jsonl", "b.bench"};
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  int argc = static_cast<int>(argv.size());
  const RunnerArgs args = parse_runner_args(argc, argv.data());
  EXPECT_EQ(args.jobs, 7);
  EXPECT_EQ(args.jsonl_path, "out.jsonl");
  ASSERT_EQ(argc, 4);
  EXPECT_STREQ(argv[1], "attack");
  EXPECT_STREQ(argv[2], "a.bench");
  EXPECT_STREQ(argv[3], "b.bench");
}

namespace {

// Builds a mutable argv from string literals for parse_runner_args tests.
RunnerArgs parse(std::vector<const char*> raw, int* argc_out = nullptr) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("prog"));
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  int argc = static_cast<int>(argv.size());
  const RunnerArgs args = parse_runner_args(argc, argv.data());
  if (argc_out != nullptr) *argc_out = argc;
  return args;
}

}  // namespace

TEST(Runner, ParseRunnerArgsCrashSafetyFlags) {
  int argc = 0;
  const RunnerArgs args =
      parse({"--resume", "--retries", "2", "--mem-mb", "256"}, &argc);
  EXPECT_TRUE(args.resume);
  EXPECT_EQ(args.memory_limit_mb, 256u);
  // Cells run once: --retries is no runner flag, so it is left to the
  // driver, which rejects it.
  EXPECT_EQ(argc, 3);
}

TEST(Runner, ParseRunnerArgsRejectsJunkValues) {
  // atoi-style silent acceptance ("--jobs abc" == 0 workers) is exactly the
  // bug this guards against: a sweep must fail loudly, not run misshapen.
  EXPECT_THROW(parse({"--jobs", "abc"}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs", "-2"}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs", "4x"}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs="}), std::invalid_argument);
  EXPECT_THROW(parse({"--jobs"}), std::invalid_argument);  // missing value
  EXPECT_THROW(parse({"--mem-mb", "lots"}), std::invalid_argument);
  // "--jobs 0" is the documented auto value, not junk.
  EXPECT_GE(parse({"--jobs", "0"}).jobs, 1);
}

TEST(Runner, ResolveJobsRejectsJunkEnv) {
  ::setenv("FL_JOBS", "many", 1);
  EXPECT_THROW(resolve_jobs(0), std::invalid_argument);
  ::setenv("FL_JOBS", "-4", 1);
  EXPECT_THROW(resolve_jobs(0), std::invalid_argument);
  ::setenv("FL_JOBS", "0", 1);
  EXPECT_THROW(resolve_jobs(0), std::invalid_argument);
  ::unsetenv("FL_JOBS");
  EXPECT_GE(resolve_jobs(0), 1);
}

TEST(Runner, GridConfigIsolatesFailingCells) {
  FaultInjector faults;
  faults.add(FaultSpec::at_cell(2, FaultKind::kThrow));
  faults.add(FaultSpec::at_cell(4, FaultKind::kOom));
  faults.add(FaultSpec::at_cell(5, FaultKind::kStall));  // bounded, throws
  GridConfig config;
  config.jobs = 1;
  config.faults = &faults;
  std::vector<int> runs(7, 0);
  const GridReport report =
      run_grid(7, config, [&](const CellContext& ctx) { ++runs[ctx.index]; });

  EXPECT_EQ(report.ok, 4u);
  EXPECT_EQ(report.failed, 3u);
  for (const std::size_t i : {2, 4, 5}) {
    // The fault fires before fn, and a failed cell is not run again.
    EXPECT_EQ(report.cells[i].status, CellOutcome::Status::kFailed) << i;
    EXPECT_EQ(runs[i], 0) << i;
  }
  EXPECT_EQ(report.cells[2].error, "fault-injected: cell 2");
  EXPECT_EQ(report.cells[4].error, std::bad_alloc().what());
  EXPECT_NE(report.cells[5].error.find("stalled"), std::string::npos);
  for (const std::size_t i : {0, 1, 3, 6}) EXPECT_EQ(runs[i], 1) << i;
}

TEST(Runner, GridConfigSkipsCompletedAndCancelledCells) {
  GridConfig config;
  config.jobs = 1;
  config.completed = {true, false, true, false};
  CancelToken cancel;
  config.cancel = &cancel;
  std::vector<int> runs(4, 0);
  const GridReport report = run_grid(4, config, [&](const CellContext& ctx) {
    ++runs[ctx.index];
    if (ctx.index == 1) cancel.request();  // signal arrives mid-sweep
  });
  EXPECT_EQ(report.cells[0].status, CellOutcome::Status::kSkipped);
  EXPECT_EQ(report.cells[1].status, CellOutcome::Status::kOk);
  EXPECT_EQ(report.cells[2].status, CellOutcome::Status::kSkipped);
  EXPECT_EQ(report.cells[3].status, CellOutcome::Status::kCancelled);
  EXPECT_EQ(runs[3], 0);  // never dispatched after the cancel
  EXPECT_TRUE(report.cancelled);
}

TEST(Fault, ParseSpecGrammar) {
  EXPECT_TRUE(FaultInjector::parse("").empty());
  EXPECT_FALSE(FaultInjector::parse("cell:7:throw").empty());
  EXPECT_FALSE(FaultInjector::parse("cell:1:throw,cell:2:oom:3").empty());
  EXPECT_THROW(FaultInjector::parse("cell:7"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("cell:x:throw"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("cell:7:explode"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("cell:7:throw:0"), std::invalid_argument);
  EXPECT_THROW(FaultInjector::parse("gate:7:throw"), std::invalid_argument);
}

TEST(Fault, CellCountIsAnIndexRange) {
  // As for write: and site: specs, count selects [index, index + count).
  const FaultInjector faults = FaultInjector::parse("cell:3:throw:2");
  EXPECT_NO_THROW(faults.inject_cell(2));
  EXPECT_THROW(faults.inject_cell(3), FaultInjected);
  EXPECT_THROW(faults.inject_cell(3), FaultInjected);  // pure: fires again
  EXPECT_THROW(faults.inject_cell(4), FaultInjected);
  EXPECT_NO_THROW(faults.inject_cell(5));
}

TEST(Signal, HandlerRoutesSignalToCancelToken) {
  CancelToken token;
  {
    ScopedSignalHandler handler(token);
    EXPECT_FALSE(token.cancelled());
    // Only one live instance allowed: handlers are process-global state.
    EXPECT_THROW(ScopedSignalHandler second(token), std::logic_error);
    std::raise(SIGTERM);  // first signal: cancels, does not kill
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(ScopedSignalHandler::last_signal(), SIGTERM);
  }
  // Handler uninstalled: a fresh one can be installed again.
  CancelToken token2;
  ScopedSignalHandler handler(token2);
  EXPECT_FALSE(token2.cancelled());
}

TEST(Jsonl, ObjectKeepsOrderAndEscapes) {
  JsonObject o;
  o.field("name", "a\"b\\c\nd").field("n", 42).field("ok", true)
      .field("x", 0.5);
  EXPECT_EQ(std::move(o).str(),
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"n\":42,\"ok\":true,\"x\":0.5}");
}

TEST(Jsonl, SinkReordersOutOfOrderWrites) {
  std::ostringstream out;
  {
    JsonlSink sink(out);
    sink.write(2, "{\"i\":2}");
    sink.write(0, "{\"i\":0}");
    EXPECT_EQ(out.str(), "{\"i\":0}\n");  // 1 still missing; 2 held back
    sink.write(1, "{\"i\":1}");
  }
  EXPECT_EQ(out.str(), "{\"i\":0}\n{\"i\":1}\n{\"i\":2}\n");
}

TEST(Jsonl, FlushDrainsPastGaps) {
  std::ostringstream out;
  JsonlSink sink(out);
  sink.write(1, "{\"i\":1}");  // index 0 never reports
  sink.flush();
  EXPECT_EQ(out.str(), "{\"i\":1}\n");
}

TEST(Jsonl, SkipUnblocksLaterWrites) {
  std::ostringstream out;
  JsonlSink sink(out);
  sink.write(2, "{\"i\":2}");
  EXPECT_EQ(out.str(), "");  // held back behind 0 and 1
  sink.skip(0);              // resumed cells never report
  sink.skip(1);
  EXPECT_EQ(out.str(), "{\"i\":2}\n");
  sink.write(3, "{\"i\":3}");
  EXPECT_EQ(out.str(), "{\"i\":2}\n{\"i\":3}\n");
  sink.skip(3);  // skipping an already-written index is a no-op
  sink.flush();
  EXPECT_EQ(out.str(), "{\"i\":2}\n{\"i\":3}\n");
}

TEST(Jsonl, SinkSyncHookFiresOnCommit) {
  std::ostringstream out;
  int syncs = 0;
  JsonlSink sink(out, [&] { ++syncs; });
  sink.write(1, "{\"i\":1}");
  EXPECT_EQ(syncs, 0);  // nothing committed yet (gap at 0)
  sink.write(0, "{\"i\":0}");
  EXPECT_EQ(syncs, 1);  // one commit flushed both lines
  sink.write_unordered("{\"h\":true}");
  EXPECT_EQ(syncs, 2);
}

TEST(Jsonl, WriteUnorderedKeepsLinesIntactUnderConcurrency) {
  std::ostringstream out;
  {
    JsonlSink sink(out);
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
      writers.emplace_back([&sink, t] {
        for (int i = 0; i < 50; ++i) {
          sink.write_unordered("{\"t\":" + std::to_string(t) +
                               ",\"i\":" + std::to_string(i) + "}");
        }
      });
    }
    for (std::thread& w : writers) w.join();
  }
  // Every line must be a complete record — interleaved writes torn across
  // lines would corrupt the file for resume scans.
  std::istringstream in(out.str());
  std::string line;
  int count = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ASSERT_TRUE(json_int_field(line, "t").has_value()) << line;
    ASSERT_TRUE(json_int_field(line, "i").has_value()) << line;
    ++count;
  }
  EXPECT_EQ(count, 200);
}

TEST(Jsonl, OpenJsonlThrowsOnUnwritablePath) {
  EXPECT_THROW(open_jsonl("/nonexistent-dir/x/y/out.jsonl"),
               std::runtime_error);
  EXPECT_THROW(JsonlWriter("/nonexistent-dir/x/y/out.jsonl"),
               std::runtime_error);
}

TEST(Jsonl, FieldParsersExtractFlatRecords) {
  const std::string line =
      "{\"cell\":12,\"bench\":\"table2\",\"status\":\"ok\",\"cells\":99}";
  EXPECT_EQ(json_int_field(line, "cell"), 12);
  EXPECT_EQ(json_int_field(line, "cells"), 99);  // full-token match only
  EXPECT_EQ(json_string_field(line, "bench"), "table2");
  EXPECT_EQ(json_string_field(line, "status"), "ok");
  EXPECT_EQ(json_int_field(line, "missing"), std::nullopt);
  EXPECT_EQ(json_string_field(line, "cell"), std::nullopt);  // not a string
  EXPECT_EQ(json_string_field("{\"a\":\"unterminated", "a"), std::nullopt);
  EXPECT_EQ(json_string_field("{\"a\":\"x\\\"y\"}", "a"), "x\"y");
}

TEST(Jsonl, ScanResumeRecoversCompletedCells) {
  const std::string path =
      ::testing::TempDir() + "/fl_resume_scan_test.jsonl";
  {
    std::ofstream out(path);
    out << run_header_line("table2", 5, 7) << "\n";
    out << "{\"cell\":0,\"bench\":\"table2\",\"status\":\"success\"}\n";
    out << "{\"cell\":3,\"bench\":\"table2\",\"status\":\"failed\","
           "\"reason\":\"boom\"}\n";
    out << "{\"record\":\"note\",\"text\":\"no cell field\"}\n";  // foreign
    out << "{\"cell\":99,\"bench\":\"table2\"}\n";  // out of range: ignored
  }
  const ResumeState state = scan_jsonl_resume(path, "table2", 5, 7);
  EXPECT_EQ(state.num_completed, 2u);
  EXPECT_EQ(state.num_failed, 1u);
  const std::vector<bool> expected = {true, false, false, true, false};
  EXPECT_EQ(state.completed, expected);

  // Mismatched manifest: resuming a different sweep onto this file would
  // corrupt it, so the scan must refuse.
  EXPECT_THROW(scan_jsonl_resume(path, "table4", 5, 7), std::runtime_error);
  EXPECT_THROW(scan_jsonl_resume(path, "table2", 6, 7), std::runtime_error);
  EXPECT_THROW(scan_jsonl_resume(path, "table2", 5, 8), std::runtime_error);

  // Missing file: fresh run, nothing completed.
  const ResumeState fresh =
      scan_jsonl_resume(path + ".does-not-exist", "table2", 5, 7);
  EXPECT_EQ(fresh.num_completed, 0u);
  EXPECT_EQ(fresh.completed.size(), 5u);
  std::remove(path.c_str());
}

TEST(Cancel, TokenInterruptsAnAttack) {
  netlist::GeneratorConfig gen;
  gen.num_inputs = 12;
  gen.num_outputs = 6;
  gen.num_gates = 80;
  gen.seed = 31;
  const netlist::Netlist original = netlist::generate_circuit(gen);
  const core::LockedCircuit locked =
      core::full_lock(original, core::FullLockConfig::with_plrs({8}));
  const attacks::Oracle oracle(original);
  CancelToken token;
  token.request();  // cancelled before the attack even starts
  attacks::AttackOptions options;
  options.interrupt = token.flag();
  const attacks::AttackResult result =
      attacks::run("sat", locked.netlist, oracle, options).result;
  EXPECT_EQ(result.status, attacks::AttackStatus::kInterrupted);
  EXPECT_EQ(result.stop_reason, sat::StopReason::kInterrupt);
  EXPECT_EQ(result.iterations, 0u);
  // Best-effort key is still sized to the key width.
  EXPECT_EQ(result.key.size(), locked.key_bits());
}

// The tentpole guarantee: a parallel sweep writes the same JSONL byte
// stream as the serial reference loop, except for the `_s` wall-clock
// fields. Runs the production sweep (attacks::run_sweep, the one behind
// `fulllock sweep`, serve sweep jobs and Tables 2 and 4) three ways on a
// two-host cell list: the CLI's grid on host 0, and cells built the way a
// table driver builds them, with coords of their own, on a renamed host 1.
TEST(Determinism, SerialAndParallelSweepsMatchModuloWallClock) {
  netlist::GeneratorConfig gen;
  gen.num_inputs = 12;
  gen.num_outputs = 6;
  gen.num_gates = 120;
  gen.seed = 5;
  std::vector<netlist::Netlist> hosts = {netlist::generate_circuit(gen)};
  gen.seed = 6;
  hosts.push_back(netlist::generate_circuit(gen));
  hosts[1].set_name("second_host");
  attacks::SweepSpec spec;
  spec.seed = 5;         // every cell solves in well under a second
  spec.timeout_s = 0.0;  // a deadline could cut two runs at different DIPs
  std::vector<attacks::SweepCell> cells =
      attacks::scheme_grid({"full-lock"}, {4, 8}, "", 2, spec.seed);
  for (const int n : {4, 8}) {
    attacks::SweepCell& cell = cells.emplace_back();
    cell.host = 1;
    cell.scheme = "full-lock";
    cell.sizes = {n};
    cell.params = "topology=shuffle,twist=0";
    cell.seed = derive_seed(spec.seed, {static_cast<std::uint64_t>(n)});
    cell.coords.field("topology", "blocking").field("n", n);
  }
  attacks::validate_sweep(cells);
  // Cells 4 and 5 name host 1, which a one-host span lacks.
  EXPECT_THROW(attacks::run_sweep(std::span(hosts).first(1), cells, spec, {}),
               std::invalid_argument);

  const auto sweep = [&](int jobs) {
    RunnerArgs args;
    args.jobs = jobs;
    args.jsonl_path = ::testing::TempDir() + "/fl_determinism.jsonl";
    const attacks::SweepResult result =
        attacks::run_sweep(hosts, cells, spec, args);
    EXPECT_EQ(result.exit_code, 0) << jobs;
    EXPECT_EQ(result.report.ok, result.cells.size()) << jobs;  // none threw
    std::ifstream in(args.jsonl_path);
    std::ostringstream out;
    out << in.rdbuf();
    std::remove(args.jsonl_path.c_str());
    // Every success record says its key was proved.
    std::istringstream lines(out.str());
    std::size_t successes = 0;
    for (std::string line; std::getline(lines, line);) {
      if (line.find("\"status\":\"success\"") == std::string::npos) continue;
      ++successes;
      EXPECT_NE(line.find("\"key_check\":\"proved\""), std::string::npos)
          << line;
    }
    EXPECT_GT(successes, 0u) << jobs;
    // Strip the wall-clock fields — the only part allowed to vary.
    static const std::regex wall_clock(",\"[a-z_]+_s\":[^,}]+");
    return std::regex_replace(out.str(), wall_clock, "");
  };

  const std::string serial = sweep(1);
  EXPECT_NE(serial.find("{\"cell\":3,\"bench\":\"sweep\",\"circuit\":\"" +
                        hosts[0].name() +
                        "\",\"scheme\":\"full-lock\",\"plr_size\":8,"
                        "\"replica\":1,\"seed\":" +
                        std::to_string(cells[3].seed) + ","),
            std::string::npos)
      << serial;
  // A driver-built cell: its host's name, its own coords, then its seed.
  for (const std::size_t i : {4, 5}) {
    EXPECT_NE(serial.find("{\"cell\":" + std::to_string(i) +
                          ",\"bench\":\"sweep\",\"circuit\":\"second_host\","
                          "\"topology\":\"blocking\",\"n\":" +
                          std::to_string(cells[i].sizes[0]) + ",\"seed\":" +
                          std::to_string(cells[i].seed) + ",\"key_bits\":"),
              std::string::npos)
        << serial;
  }
  EXPECT_EQ(serial, sweep(4));
  EXPECT_EQ(serial, sweep(3));  // worker count must not matter either
}

}  // namespace
}  // namespace fl::runtime

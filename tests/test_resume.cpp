// Crash/resume integration: a sweep killed mid-run (hard process death via
// fault injection, simulating an OOM-kill) must leave a durable JSONL file
// that a --resume run completes to the exact byte stream an uninterrupted
// run produces — no duplicate cells, no holes, no extra marker lines.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "runtime/fault.h"
#include "runtime/jsonl.h"
#include "runtime/runner.h"
#include "runtime/seed.h"
#include "runtime/sweep.h"

namespace fl::runtime {
namespace {

constexpr std::size_t kCells = 6;
constexpr std::uint64_t kBaseSeed = 42;

// A miniature sweep in the exact shape of the bench drivers: SweepSession
// around run_grid, one record per cell with only deterministic fields (so
// files from two runs compare byte-for-byte).
int run_mini_sweep(RunnerArgs args, const FaultInjector* faults) {
  args.jobs = 1;  // serial: the byte-identical reference discipline
  SweepSessionOptions options;
  options.faults = faults;  // reaches both the grid and the durable writer
  SweepSession session("mini", kCells, kBaseSeed, args, options);
  const auto record_base = [&](std::size_t i) {
    JsonObject o;
    o.field("cell", i)
        .field("bench", "mini")
        .field("seed", derive_seed(kBaseSeed, {static_cast<std::uint64_t>(i)}));
    return o;
  };
  const GridReport report =
      run_grid(kCells, session.grid_config(), [&](const CellContext& ctx) {
        JsonObject o = record_base(ctx.index);
        o.field("value",
                derive_seed(7, {static_cast<std::uint64_t>(ctx.index)}));
        session.sink()->write(ctx.index, o.str());
      });
  return session.finish(report, record_base);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(Resume, KilledSweepResumesByteIdentical) {
#if !defined(__unix__) && !defined(__APPLE__)
  GTEST_SKIP() << "fork-based crash test requires a unix target";
#else
  const std::string full_path = ::testing::TempDir() + "/fl_full.jsonl";
  const std::string crash_path = ::testing::TempDir() + "/fl_crash.jsonl";
  std::remove(full_path.c_str());
  std::remove(crash_path.c_str());

  // Reference: the uninterrupted serial run.
  RunnerArgs full_args;
  full_args.jsonl_path = full_path;
  ASSERT_EQ(run_mini_sweep(full_args, nullptr), 0);

  // Crash run in a child process: cell 3 dies with std::_Exit(137), the
  // way the kernel OOM-killer would take the process out — no unwinding,
  // no destructor flush.
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    FaultInjector faults;
    faults.add(FaultSpec::at_cell(3, FaultKind::kExit));
    RunnerArgs crash_args;
    crash_args.jsonl_path = crash_path;
    run_mini_sweep(crash_args, &faults);
    std::_Exit(0);  // unreachable unless the fault failed to fire
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 137);

  // The partial file survived the kill: manifest header + cells 0..2, all
  // fsynced before cell 3 ran.
  const std::vector<std::string> partial = lines_of(slurp(crash_path));
  ASSERT_EQ(partial.size(), 4u);
  EXPECT_EQ(json_string_field(partial[0], "record"), "run_header");
  for (std::size_t i = 1; i < partial.size(); ++i) {
    EXPECT_EQ(json_int_field(partial[i], "cell"),
              static_cast<long long>(i - 1));
  }

  // Resume: skips the completed cells, re-runs 3..5, appends nothing else.
  RunnerArgs resume_args;
  resume_args.jsonl_path = crash_path;
  resume_args.resume = true;
  ASSERT_EQ(run_mini_sweep(resume_args, nullptr), 0);

  // Byte-identical to the uninterrupted run: same header, every cell
  // exactly once, in order, no duplicates, no resume markers.
  EXPECT_EQ(slurp(crash_path), slurp(full_path));

  std::remove(full_path.c_str());
  std::remove(crash_path.c_str());
#endif
}

TEST(Resume, FailedCellsAreTerminalNotHoles) {
  const std::string path = ::testing::TempDir() + "/fl_failed.jsonl";
  std::remove(path.c_str());

  // Cell 2 throws: the sweep finishes with a structured failure record and
  // a nonzero exit code.
  FaultInjector faults;
  faults.add(FaultSpec::at_cell(2, FaultKind::kThrow));
  RunnerArgs args;
  args.jsonl_path = path;
  EXPECT_EQ(run_mini_sweep(args, &faults), 1);

  const std::vector<std::string> lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), kCells + 1);  // header + one record per cell
  bool found_failure = false;
  for (const std::string& line : lines) {
    if (json_int_field(line, "cell") != 2) continue;
    found_failure = true;
    EXPECT_EQ(json_string_field(line, "status"), "failed");
    EXPECT_EQ(json_int_field(line, "attempt"), std::nullopt);  // runs once
    const auto reason = json_string_field(line, "reason");
    ASSERT_TRUE(reason.has_value());
    EXPECT_NE(reason->find("fault-injected"), std::string::npos);
  }
  EXPECT_TRUE(found_failure);

  // A failure record is a terminal outcome: --resume does not re-run the
  // cell (rerunning would duplicate its record), the file is unchanged, and
  // the resumed sweep still exits 1 — the failure is remembered, not
  // forgotten because it came from the checkpoint.
  const std::string before = slurp(path);
  RunnerArgs resume_args;
  resume_args.jsonl_path = path;
  resume_args.resume = true;
  EXPECT_EQ(run_mini_sweep(resume_args, &faults), 1);
  EXPECT_EQ(slurp(path), before);
  EXPECT_EQ(run_mini_sweep(resume_args, nullptr), 1);  // no fault needed
  EXPECT_EQ(slurp(path), before);

  std::remove(path.c_str());
}

TEST(Resume, CheckpointWriteFaultForcesNonzeroExitThenResumes) {
  const std::string full_path = ::testing::TempDir() + "/fl_ws_full.jsonl";
  const std::string path = ::testing::TempDir() + "/fl_ws_enospc.jsonl";
  std::remove(full_path.c_str());
  std::remove(path.c_str());

  RunnerArgs full_args;
  full_args.jsonl_path = full_path;
  ASSERT_EQ(run_mini_sweep(full_args, nullptr), 0);

  // The disk fills right after the manifest header commits: every later
  // sync fails with (injected) ENOSPC. No cell record becomes durable, and
  // the sweep must not exit 0 — results that never reached disk are not
  // results.
  FaultInjector faults;
  faults.add(FaultSpec::at_write(
      static_cast<std::size_t>(JsonlWriter::sync_sequence()) + 1,
      FaultKind::kEWrite, /*count=*/1 << 20));
  RunnerArgs args;
  args.jsonl_path = path;
  ::testing::internal::CaptureStderr();
  EXPECT_NE(run_mini_sweep(args, &faults), 0);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("fault-injected"), std::string::npos) << err;

  // The file holds the fsynced header plus at most the one record that was
  // already in the stream buffer when the disk filled (it lands at close;
  // a complete record is resumable-from). The poisoned stream let nothing
  // after it through — in particular none of the failure records, which
  // would otherwise sit next to the value records they contradict.
  const std::vector<std::string> partial = lines_of(slurp(path));
  ASSERT_LE(partial.size(), 2u);
  ASSERT_GE(partial.size(), 1u);
  EXPECT_EQ(json_string_field(partial[0], "record"), "run_header");
  for (const std::string& line : partial) {
    EXPECT_EQ(line.find("\"status\":\"failed\""), std::string::npos) << line;
  }

  // Disk space frees up: --resume re-runs everything that never committed
  // and converges to the exact byte stream of an undisturbed run.
  RunnerArgs resume_args;
  resume_args.jsonl_path = path;
  resume_args.resume = true;
  EXPECT_EQ(run_mini_sweep(resume_args, nullptr), 0);
  EXPECT_EQ(slurp(path), slurp(full_path));

  std::remove(full_path.c_str());
  std::remove(path.c_str());
}

TEST(Resume, ManifestMismatchRefusesToResume) {
  const std::string path = ::testing::TempDir() + "/fl_mismatch.jsonl";
  std::remove(path.c_str());
  RunnerArgs args;
  args.jsonl_path = path;
  ASSERT_EQ(run_mini_sweep(args, nullptr), 0);

  // A sweep with a different grid must not append onto this file.
  RunnerArgs other;
  other.jsonl_path = path;
  other.resume = true;
  other.jobs = 1;
  EXPECT_THROW(SweepSession("other-bench", kCells, kBaseSeed, other),
               std::runtime_error);
  EXPECT_THROW(SweepSession("mini", kCells + 1, kBaseSeed, other),
               std::runtime_error);
  // Nor may one under another base seed: it would finish the file with
  // cells the first run never asked for.
  EXPECT_THROW(SweepSession("mini", kCells, kBaseSeed + 1, other),
               std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fl::runtime

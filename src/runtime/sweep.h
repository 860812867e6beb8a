// Crash-safe sweep harness shared by the bench drivers and the
// lock-and-attack sweep (attacks/sweep.h) of the CLI, the serve daemon and
// Tables 2 and 4.
//
// SweepSession bundles everything a resumable sweep needs around run_grid:
//   - a durable JSONL sink (JsonlWriter + fsync after every committed line)
//     with an atomic run-manifest header on fresh runs,
//   - --resume: scan the existing file, mark completed cells, skip them,
//   - SIGINT/SIGTERM → CancelToken so in-flight solves stop and the file
//     stays resumable,
//   - structured failure records for cells that threw,
//   - the process exit code (0 / 1 on failures, including failure records
//     the resumed file already held / 128+signo on interrupt).
//
// A driver opens the session on its grid, runs run_grid(n,
// session.grid_config(), cell), writes each cell's record through
// session.sink() (or calls note_interrupted), and returns
// session.finish(report, record_base), where record_base(i) builds the
// cell's coordinate fields. attacks::run_sweep (the lock-and-attack
// sweep) and bench/fig1_sat_hardness.cpp / bench/fig7_cv_ratio.cpp (grids
// that attack nothing) are worked examples.
//
// Interrupted cells write no record (note_interrupted unblocks the in-order
// sink), so --resume re-runs them; failed cells get a failure record
// ("status":"failed") and are NOT re-run — a terminal outcome, not a hole,
// and one that keeps failing the sweep's exit code on every --resume.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "runtime/cancel.h"
#include "runtime/jsonl.h"
#include "runtime/runner.h"
#include "runtime/signal.h"

namespace fl::runtime {

class FaultInjector;

// Embedding knobs for hosts that are not a standalone sweep process. The
// serve daemon runs many SweepSessions inside one process that already owns
// the (process-global) signal handler: each job session gets the daemon's
// per-job cancel token instead of installing its own handler.
struct SweepSessionOptions {
  // Install the process-wide SIGINT/SIGTERM handler (standalone drivers).
  // Must be false when an enclosing component already owns it.
  bool install_signal_handler = true;
  // External cancellation source used instead of the session's own token
  // (the daemon's per-job token, pre-wired to its drain logic).
  const CancelToken* cancel = nullptr;
  // Fault injector for the durable writer and the grid (tests); nullptr =
  // the global FL_FAULT-configured one.
  const FaultInjector* faults = nullptr;
};

class SweepSession {
 public:
  // Opens the JSONL file named by `args` (append mode when resuming onto an
  // existing file, after validating its manifest against `bench`,
  // `grid_size` and `base_seed`), writes + syncs the run header on fresh
  // runs, and installs the signal handler (unless `options` opts out).
  // Throws std::runtime_error on an unwritable path or a manifest mismatch.
  SweepSession(std::string bench, std::size_t grid_size,
               std::uint64_t base_seed, RunnerArgs args,
               SweepSessionOptions options = {});
  ~SweepSession();
  SweepSession(const SweepSession&) = delete;
  SweepSession& operator=(const SweepSession&) = delete;

  // nullptr when the sweep runs without --jsonl.
  JsonlSink* sink() { return sink_ ? &*sink_ : nullptr; }
  const CancelToken& cancel() const {
    return options_.cancel != nullptr ? *options_.cancel : cancel_;
  }
  // Cells already completed in the resumed file (0 on fresh runs).
  std::size_t num_resumed() const { return resume_.num_completed; }

  // Grid execution config wired to this session: jobs from the runner args,
  // the signal-backed cancel token, and the resume mask. Pass to
  // run_grid(n, config, fn).
  GridConfig grid_config() const;

  // A cell observed cancellation and wrote no record: unblocks the in-order
  // sink so records of later cells are not held back.
  void note_interrupted(std::size_t index);

  // Writes a structured failure record ("status":"failed", "reason") for
  // every kFailed cell — `record_base(i)` supplies the deterministic
  // coordinate fields, starting with "cell" — prints a one-line outcome
  // summary, drains + syncs the sink, and returns the process exit code:
  // 128+signo when interrupted, 1 when any cell failed in this run or the
  // resumed file holds a failure record, 0 otherwise. A checkpoint
  // write/fsync failure here (ENOSPC mid-drain) is reported on stderr and
  // forces exit code 1 — a sweep whose results never became durable must
  // not exit 0.
  int finish(const GridReport& report,
             const std::function<JsonObject(std::size_t)>& record_base);

 private:
  std::string bench_;
  std::size_t grid_size_;
  RunnerArgs args_;
  SweepSessionOptions options_;
  ResumeState resume_;
  CancelToken cancel_;
  std::optional<JsonlWriter> writer_;
  std::optional<JsonlSink> sink_;      // after writer_: flushed before sync fd closes
  std::optional<ScopedSignalHandler> signals_;  // last: uninstalled first
};

}  // namespace fl::runtime

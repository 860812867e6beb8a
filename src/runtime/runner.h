// Sweep-grid execution: the one entry point every bench driver, the CLI and
// the serve daemon use to fan (benchmark × scheme × key-width × seed) grids
// over workers.
//
//   auto args = fl::runtime::parse_runner_args(argc, argv);  // --jobs/--jsonl
//   GridConfig config;
//   config.jobs = args.jobs;
//   run_grid(grid.size(), config, [&](const CellContext& ctx) {
//     results[ctx.index] = run_cell(grid[ctx.index]);
//   });
//
// jobs <= 1 runs the plain serial loop on the calling thread, in index
// order — the reference behavior the parallel path must reproduce
// field-for-field (modulo wall-clock) for identical seeds. On top of that:
// per-cell fault isolation (a throwing cell becomes a structured
// CellOutcome instead of poisoning the grid), bounded retry with budget
// escalation, a resume mask of already-completed cells, cooperative
// cancellation, and deterministic fault injection (fault.h) for testing all
// of the above.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/cancel.h"

namespace fl::runtime {

class FaultInjector;

// Worker count resolution: `requested` if > 0, else the FL_JOBS environment
// variable, else std::thread::hardware_concurrency() (min 1). Throws
// std::invalid_argument when FL_JOBS is set but not a positive integer.
int resolve_jobs(int requested = 0);

// Strict whole-string flag parsing, shared by every subcommand that takes
// numeric knobs (sweep runners, the serve daemon). Junk ("", "4x", "1e3"),
// out-of-range and overflowing values throw std::invalid_argument naming
// the flag and the accepted range — a long-running job must not silently
// start with a zero budget because "10s" parsed as 0.
long long parse_int_flag(std::string_view what, std::string_view text,
                         long long min_value,
                         long long max_value = (1LL << 62));
// Seconds >= 0; rejects negatives, junk, and non-finite values ("inf",
// "nan" — an infinite budget is spelled 0, not inf).
double parse_seconds_flag(std::string_view what, std::string_view text);

// The one value-flag reader, shared by parse_runner_args, the serve daemon's
// flags and every CLI subcommand: "--name VALUE" or "--name=VALUE" at
// argv[i] yields the value (moving i past a separate one); any other
// argument yields nullopt. A bare "--name" at the end of argv throws
// std::invalid_argument("missing value for --name").
std::optional<std::string> flag_value(std::string_view name, int argc,
                                      char** argv, int& i);

// Flags every sweep driver shares. parse_runner_args strips the flags it
// recognizes out of argv (leaving positional arguments for the driver),
// validates their values (std::invalid_argument on junk — a sweep must not
// silently run with the wrong worker count or budget), and resolves the
// worker count:
//   --jobs N | --jobs=N            worker threads (env FL_JOBS; 0 = auto)
//   --jsonl PATH | --jsonl=PATH    JSONL result file (env FL_JSONL)
//   --resume                       append to --jsonl, skip completed cells
//                                  (env FL_RESUME=1)
//   --retries N | --retries=N      per-cell retry budget on failure
//                                  (env FL_RETRIES, default 0)
//   --cell-timeout S               per-cell-attempt wall budget in seconds,
//                                  escalated 2x per retry (env
//                                  FL_CELL_TIMEOUT_S, 0 = none)
//   --mem-mb M | --mem-mb=M        solver memory budget per cell, MB (env
//                                  FL_MEM_MB, 0 = unlimited)
//   --trace PATH | --trace=PATH    per-DIP-iteration JSONL trace file (env
//                                  FL_TRACE; see attacks::JsonlTraceSink)
struct RunnerArgs {
  int jobs = 1;
  std::string jsonl_path;
  bool resume = false;
  int retries = 0;
  double cell_timeout_s = 0.0;
  std::size_t memory_limit_mb = 0;
  std::string trace_path;
};
RunnerArgs parse_runner_args(int& argc, char** argv);

// Per-attempt view handed to each grid cell by the GridConfig overload.
struct CellContext {
  std::size_t index = 0;  // grid index
  int attempt = 0;        // 0-based; > 0 on retries
  // This attempt's wall budget (0 = unlimited). Cells running an attack
  // should cap their own timeout with effective_timeout() and forward
  // `interrupt` so a cancelled sweep cuts in-flight solves short.
  double timeout_s = 0.0;
  std::chrono::steady_clock::time_point start{};
  const std::atomic<bool>* interrupt = nullptr;

  // Budget elapsed or cancellation requested. Poll point for cooperative
  // cells (and for FaultKind::kStall).
  bool expired() const;
  // min(timeout_s, fallback) over the non-zero ones.
  double effective_timeout(double fallback) const;
};

// Terminal outcome of one grid cell under the GridConfig overload.
struct CellOutcome {
  enum class Status : std::uint8_t {
    kOk,         // fn returned normally
    kFailed,     // every attempt threw; `error` is the last what()
    kSkipped,    // masked off by GridConfig::completed (--resume)
    kCancelled,  // cancellation arrived before/while the cell ran
  };
  Status status = Status::kOk;
  int attempts = 0;    // attempts actually made
  std::string error;   // last failure message (kFailed)
  std::exception_ptr exception;  // last failure, for rethrow by callers
};
const char* to_string(CellOutcome::Status status);

struct GridConfig {
  int jobs = 1;
  // Per-cell retry budget: a cell that throws is retried up to `retries`
  // more times before its failure is recorded. Each retry doubles the
  // attempt's wall budget.
  int retries = 0;
  double cell_timeout_s = 0.0;  // first attempt's budget (0 = none)
  // Cooperative cancellation (signal handler, tests). Cells not yet started
  // when it fires are marked kCancelled; in-flight cells see it through
  // CellContext::interrupt.
  const CancelToken* cancel = nullptr;
  // Resume mask: cells marked true are not run (kSkipped).
  std::vector<bool> completed;
  // Fault injector consulted at every cell attempt; nullptr = the global
  // FL_FAULT-configured injector.
  const FaultInjector* faults = nullptr;
};

// What a grid run produced, one outcome per cell. Exceptions never escape
// run_grid — `first_error` keeps the completion-order first failure for
// callers that want to rethrow it.
struct GridReport {
  std::vector<CellOutcome> cells;
  std::exception_ptr first_error;
  bool cancelled = false;
  std::size_t ok = 0, failed = 0, skipped = 0, cancelled_cells = 0;
};

// Crash-safe grid execution. Runs fn for every unmasked cell on
// `config.jobs` workers (serially when <= 1), retrying failed cells per the
// config, and reports per-cell outcomes instead of throwing.
GridReport run_grid(std::size_t n, const GridConfig& config,
                    const std::function<void(const CellContext&)>& fn);

}  // namespace fl::runtime

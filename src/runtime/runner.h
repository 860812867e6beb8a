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
// CellOutcome instead of poisoning the grid), a resume mask of
// already-completed cells, cooperative cancellation, and deterministic
// fault injection (fault.h) for testing all of the above. Every cell runs
// once: a cell that throws is recorded as failed, not run again.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
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
//   --mem-mb M | --mem-mb=M        solver memory budget per cell, MB (env
//                                  FL_MEM_MB, 0 = unlimited)
//   --trace PATH | --trace=PATH    per-DIP-iteration JSONL trace file (env
//                                  FL_TRACE; see attacks::JsonlTraceSink)
struct RunnerArgs {
  int jobs = 1;
  std::string jsonl_path;
  bool resume = false;
  std::size_t memory_limit_mb = 0;
  std::string trace_path;
};
RunnerArgs parse_runner_args(int& argc, char** argv);

// What run_grid hands each grid cell. Cells running an attack forward
// `interrupt` so a cancelled sweep cuts in-flight solves short.
struct CellContext {
  std::size_t index = 0;  // grid index
  const std::atomic<bool>* interrupt = nullptr;
};

// Terminal outcome of one grid cell.
struct CellOutcome {
  enum class Status : std::uint8_t {
    kOk,         // fn returned normally
    kFailed,     // fn (or an injected fault) threw; `error` is its what()
    kSkipped,    // masked off by GridConfig::completed (--resume)
    kCancelled,  // cancellation arrived before/while the cell ran
  };
  Status status = Status::kOk;
  std::string error;  // failure message (kFailed)
};
const char* to_string(CellOutcome::Status status);

struct GridConfig {
  int jobs = 1;
  // Cooperative cancellation (signal handler, tests). Cells not yet started
  // when it fires are marked kCancelled; in-flight cells see it through
  // CellContext::interrupt.
  const CancelToken* cancel = nullptr;
  // Resume mask: cells marked true are not run (kSkipped).
  std::vector<bool> completed;
  // Fault injector consulted before every cell; nullptr = the global
  // FL_FAULT-configured injector.
  const FaultInjector* faults = nullptr;
};

// What a grid run produced, one outcome per cell. Exceptions never escape
// run_grid: a failing cell's message is in its outcome.
struct GridReport {
  std::vector<CellOutcome> cells;
  bool cancelled = false;
  std::size_t ok = 0, failed = 0, skipped = 0, cancelled_cells = 0;
};

// Crash-safe grid execution. Runs fn once for every unmasked cell on
// `config.jobs` workers (serially when <= 1) and reports per-cell outcomes
// instead of throwing.
GridReport run_grid(std::size_t n, const GridConfig& config,
                    const std::function<void(const CellContext&)>& fn);

}  // namespace fl::runtime

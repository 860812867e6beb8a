#include "runtime/runner.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "runtime/fault.h"
#include "runtime/thread_pool.h"

namespace fl::runtime {

namespace {

[[noreturn]] void bad_value(std::string_view what, std::string_view text,
                            std::string_view expected) {
  throw std::invalid_argument("invalid value for " + std::string(what) +
                              ": '" + std::string(text) + "' (expected " +
                              std::string(expected) + ")");
}

bool env_flag(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr) return false;
  const std::string_view v = env;
  return !v.empty() && v != "0" && v != "false" && v != "no";
}

// Runs one cell to a terminal outcome: fault injection first, then fn, with
// cancellation taking precedence over failure (an interrupted solve often
// surfaces as an exception — it must not be recorded as a failed cell, or
// --resume would wrongly consider it done).
CellOutcome run_one_cell(const GridConfig& config, const FaultInjector& faults,
                         const std::function<void(const CellContext&)>& fn,
                         std::size_t index) {
  CellOutcome outcome;
  const auto cancelled = [&] {
    return config.cancel != nullptr && config.cancel->cancelled();
  };
  if (cancelled()) {
    outcome.status = CellOutcome::Status::kCancelled;
    return outcome;
  }
  CellContext ctx;
  ctx.index = index;
  ctx.interrupt = config.cancel != nullptr ? config.cancel->flag() : nullptr;
  try {
    faults.inject_cell(index);
    fn(ctx);
    return outcome;
  } catch (const std::exception& e) {
    outcome.error = e.what();
  } catch (...) {
    outcome.error = "unknown exception";
  }
  outcome.status = cancelled() ? CellOutcome::Status::kCancelled
                               : CellOutcome::Status::kFailed;
  return outcome;
}

}  // namespace

long long parse_int_flag(std::string_view what, std::string_view text,
                         long long min_value, long long max_value) {
  long long value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size() ||
      value < min_value || value > max_value) {
    bad_value(what, text,
              "integer in [" + std::to_string(min_value) + ", " +
                  std::to_string(max_value) + "]");
  }
  return value;
}

double parse_seconds_flag(std::string_view what, std::string_view text) {
  const std::string buf(text);
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  // NB: !(value >= 0.0) also rejects NaN, which `value < 0.0` would accept.
  if (buf.empty() || end != buf.c_str() + buf.size() || !(value >= 0.0) ||
      !std::isfinite(value)) {
    bad_value(what, text, "finite seconds >= 0");
  }
  return value;
}

std::optional<std::string> flag_value(std::string_view name, int argc,
                                      char** argv, int& i) {
  const std::string_view arg = argv[i];
  if (arg.size() > name.size() && arg.starts_with(name) &&
      arg[name.size()] == '=') {
    return std::string(arg.substr(name.size() + 1));
  }
  if (arg != name) return std::nullopt;
  if (i + 1 >= argc) {
    throw std::invalid_argument("missing value for " + std::string(name));
  }
  return std::string(argv[++i]);
}

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("FL_JOBS"); env != nullptr) {
    const long long n = parse_int_flag("FL_JOBS", env, 1);
    return static_cast<int>(std::min<long long>(n, 1 << 20));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

RunnerArgs parse_runner_args(int& argc, char** argv) {
  int requested_jobs = 0;
  RunnerArgs args;
  if (const char* env = std::getenv("FL_JSONL"); env != nullptr) {
    args.jsonl_path = env;
  }
  if (const char* env = std::getenv("FL_MEM_MB"); env != nullptr) {
    args.memory_limit_mb =
        static_cast<std::size_t>(parse_int_flag("FL_MEM_MB", env, 0));
  }
  if (const char* env = std::getenv("FL_TRACE"); env != nullptr) {
    args.trace_path = env;
  }
  args.resume = env_flag("FL_RESUME");
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--resume") {
      args.resume = true;
    } else if (auto v = flag_value("--jobs", argc, argv, i)) {
      requested_jobs =
          static_cast<int>(parse_int_flag("--jobs", *v, 0, 1 << 20));
    } else if (auto v = flag_value("--jsonl", argc, argv, i)) {
      args.jsonl_path = *v;
    } else if (auto v = flag_value("--mem-mb", argc, argv, i)) {
      args.memory_limit_mb =
          static_cast<std::size_t>(parse_int_flag("--mem-mb", *v, 0));
    } else if (auto v = flag_value("--trace", argc, argv, i)) {
      args.trace_path = *v;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  args.jobs = resolve_jobs(requested_jobs);
  return args;
}

const char* to_string(CellOutcome::Status status) {
  switch (status) {
    case CellOutcome::Status::kOk: return "ok";
    case CellOutcome::Status::kFailed: return "failed";
    case CellOutcome::Status::kSkipped: return "skipped";
    case CellOutcome::Status::kCancelled: return "cancelled";
  }
  return "?";
}

GridReport run_grid(std::size_t n, const GridConfig& config,
                    const std::function<void(const CellContext&)>& fn) {
  GridReport report;
  report.cells.resize(n);
  const FaultInjector& faults =
      config.faults != nullptr ? *config.faults : FaultInjector::global();

  // Outcome slots are disjoint: each worker writes only its own cell's.
  const auto run_one = [&](std::size_t i) {
    if (i < config.completed.size() && config.completed[i]) {
      report.cells[i].status = CellOutcome::Status::kSkipped;
      return;
    }
    report.cells[i] = run_one_cell(config, faults, fn, i);
  };

  if (config.jobs <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) run_one(i);
  } else {
    ThreadPool pool(static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(config.jobs), n)));
    for (std::size_t i = 0; i < n; ++i) {
      pool.submit([&, i] { run_one(i); });
    }
    pool.wait_idle();
  }

  for (const CellOutcome& cell : report.cells) {
    switch (cell.status) {
      case CellOutcome::Status::kOk: ++report.ok; break;
      case CellOutcome::Status::kFailed: ++report.failed; break;
      case CellOutcome::Status::kSkipped: ++report.skipped; break;
      case CellOutcome::Status::kCancelled: ++report.cancelled_cells; break;
    }
  }
  report.cancelled = config.cancel != nullptr && config.cancel->cancelled();
  return report;
}

}  // namespace fl::runtime

#include "runtime/sweep.h"

#include <csignal>
#include <cstdio>
#include <fstream>
#include <utility>

#include "runtime/fault.h"

namespace fl::runtime {

SweepSession::SweepSession(std::string bench, std::size_t grid_size,
                           std::uint64_t base_seed, RunnerArgs args,
                           SweepSessionOptions options)
    : bench_(std::move(bench)),
      grid_size_(grid_size),
      args_(std::move(args)),
      options_(options) {
  resume_.completed.assign(grid_size_, false);
  if (!args_.jsonl_path.empty()) {
    // Resume only has meaning when there is a file to resume; a missing
    // file degrades to a fresh run (same flags work for the first launch
    // and every relaunch).
    const bool have_file =
        args_.resume && std::ifstream(args_.jsonl_path).good();
    if (have_file) {
      resume_ = scan_jsonl_resume(args_.jsonl_path, bench_, grid_size_,
                                  base_seed);
    }
    writer_.emplace(args_.jsonl_path, /*append=*/have_file, options_.faults);
    sink_.emplace(writer_->stream(), [w = &*writer_] { w->sync(); });
    if (!have_file) {
      // Manifest header first, made durable before any cell runs, so a
      // crash at any later point leaves a resumable file.
      sink_->write_unordered(run_header_line(bench_, grid_size_, base_seed));
    }
    for (std::size_t i = 0; i < resume_.completed.size(); ++i) {
      if (resume_.completed[i]) sink_->skip(i);
    }
  }
  if (options_.install_signal_handler) signals_.emplace(cancel_);
}

SweepSession::~SweepSession() = default;

GridConfig SweepSession::grid_config() const {
  GridConfig config;
  config.jobs = args_.jobs;
  config.cancel = &cancel();
  config.completed = resume_.completed;
  config.faults = options_.faults;
  return config;
}

void SweepSession::note_interrupted(std::size_t index) {
  if (sink_) sink_->skip(index);
}

int SweepSession::finish(
    const GridReport& report,
    const std::function<JsonObject(std::size_t)>& record_base) {
  // A sink write below may itself hit the failure it is reporting (the disk
  // that swallowed a cell's record is still full). Keep going: every broken
  // cell is still named on stderr, and the lost-durability exit code wins.
  bool sink_broken = false;
  const auto sink_write = [&](std::size_t index, std::string line) {
    if (!sink_ || sink_broken) return;
    try {
      sink_->write(index, std::move(line));
    } catch (const std::exception& e) {
      sink_broken = true;
      std::fprintf(stderr, "%s: checkpoint write failed: %s\n", bench_.c_str(),
                   e.what());
    }
  };

  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const CellOutcome& cell = report.cells[i];
    if (cell.status != CellOutcome::Status::kFailed) continue;
    JsonObject o = record_base(i);
    o.field("status", "failed").field("reason", cell.error);
    sink_write(i, o.str());
    std::fprintf(stderr, "%s: cell %zu failed: %s\n", bench_.c_str(), i,
                 cell.error.c_str());
  }
  if (sink_ && !sink_broken) {
    try {
      sink_->flush();
    } catch (const std::exception& e) {
      sink_broken = true;
      std::fprintf(stderr, "%s: checkpoint flush failed: %s\n", bench_.c_str(),
                   e.what());
    }
  }

  std::fprintf(stderr,
               "%s: %zu ok, %zu failed, %zu resumed (%zu failed), %zu "
               "cancelled of %zu cells%s\n",
               bench_.c_str(), report.ok, report.failed, report.skipped,
               resume_.num_failed, report.cancelled_cells, report.cells.size(),
               report.cancelled ? " (interrupted — rerun with --resume)" : "");

  if (report.cancelled) {
    const int signo = ScopedSignalHandler::last_signal();
    return 128 + (signo > 0 ? signo : SIGINT);
  }
  // A failure record the resumed file already held is as final as one
  // written now: resuming must not turn a failed sweep into a clean one.
  const bool failed = report.failed > 0 || resume_.num_failed > 0;
  return (failed || sink_broken) ? 1 : 0;
}

}  // namespace fl::runtime

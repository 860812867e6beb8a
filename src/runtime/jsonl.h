// Thread-safe JSONL result sink for sweep drivers.
//
// Schema convention (documented in EXPERIMENTS.md): one JSON object per
// line; wall-clock fields carry an `_s` suffix (`wall_s`,
// `mean_iteration_s`) and are the only fields allowed to differ between two
// runs of the same seed grid — everything else must be a deterministic
// function of the grid coordinates, which is what the serial-vs-parallel
// determinism test asserts.
//
// Crash safety: JsonlWriter opens the file (optionally in append mode for
// --resume) and exposes sync() = flush + fsync; JsonlSink calls it after
// every committed line, so a record that reached the file survives a crash
// or OOM-kill. scan_jsonl_resume() parses a previous run's file back into
// a completed-cell mask keyed by each record's `cell` field.
//
// Failure surfacing: a checkpoint that silently stops being durable is worse
// than a crash, so JsonlWriter::sync() throws WriteFault (fault.h) when the
// stream flush or the fsync reports an error (ENOSPC, EIO) — and consults
// the fault injector first (FL_FAULT="write:<seq>:ewrite") so the disk-full
// path is deterministically testable. Callers let the exception fail the
// producing cell/job; SweepSession::finish turns it into a nonzero exit.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace fl::runtime {

class FaultInjector;

// Builder for one JSONL record. Fields keep insertion order; keys are
// assumed to be plain identifiers (not escaped), values are escaped.
class JsonObject {
 public:
  JsonObject& field(std::string_view key, std::string_view value);
  JsonObject& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  JsonObject& field(std::string_view key, bool value);
  JsonObject& field(std::string_view key, double value);
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  JsonObject& field(std::string_view key, T value) {
    if constexpr (std::is_signed_v<T>) {
      return raw(key, std::to_string(static_cast<long long>(value)));
    } else {
      return raw(key, std::to_string(static_cast<unsigned long long>(value)));
    }
  }

  // Flat integer array value ("[4,8,16]") — the only non-scalar shape the
  // repo's JSONL records use (job specs in the serve journal).
  JsonObject& field(std::string_view key, std::span<const int> values);

  // Appends every field of `other` (a still-open builder — str() not yet
  // called). Lets a component merge fields produced elsewhere, e.g. the
  // serve scheduler folding runner-supplied fields into a terminal record.
  JsonObject& merge(const JsonObject& other);

  // True while no field has been added.
  bool empty() const { return first_; }

  // Closes the object. The builder is spent afterwards.
  std::string str();

 private:
  JsonObject& raw(std::string_view key, std::string_view value);

  std::string buf_ = "{";
  bool first_ = true;
};

// Appends records to a stream in index order no matter which thread (or in
// which order) produced them: write(i, line) buffers until every line with a
// smaller index has been flushed. A parallel sweep therefore emits the same
// byte stream as a serial one, give or take the wall-clock field values.
class JsonlSink {
 public:
  // `sync` (optional) is invoked — with the sink's lock held — every time at
  // least one buffered line was committed to the stream; a durable sink
  // passes JsonlWriter::sync so committed records survive a crash.
  explicit JsonlSink(std::ostream& out, std::function<void()> sync = {})
      : out_(out), sync_(std::move(sync)) {}
  // Best-effort drain: a sync failure during destruction (e.g. the disk
  // filled while a failure record was being appended) cannot be surfaced as
  // an exception — callers that need the error must call flush() themselves
  // first (SweepSession::finish does).
  ~JsonlSink() {
    try {
      flush();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
  }
  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  // In-order append; `index` is the job's grid index, each used once.
  void write(std::size_t index, std::string line);
  // Marks `index` as never-coming (cell skipped by --resume): later indices
  // are not held back waiting for it. Each index is either written or
  // skipped, never both.
  void skip(std::size_t index);
  // Immediate append for records outside any grid (e.g. a run header).
  void write_unordered(const std::string& line);
  // Drains records still waiting on a gap (jobs that never reported).
  void flush();

 private:
  void drain_ready_locked();  // emits pending lines / skips at next_

  std::ostream& out_;
  std::function<void()> sync_;
  std::mutex mu_;
  std::size_t next_ = 0;
  std::map<std::size_t, std::string> pending_;
  std::set<std::size_t> skipped_;
};

// Durable file-backed target for a JsonlSink: owns the output stream plus a
// raw descriptor on the same file so sync() can flush user-space buffers
// AND fsync the kernel page cache — the property the --resume workflow
// relies on after a SIGKILL/OOM-kill.
class JsonlWriter {
 public:
  // Truncates by default; append = true continues an existing file
  // (--resume). Throws std::runtime_error when the path is unwritable —
  // a sweep must not silently drop its results. `faults` overrides the
  // global FL_FAULT injector for the write-failure site (tests); nullptr
  // uses FaultInjector::global().
  explicit JsonlWriter(const std::string& path, bool append = false,
                       const FaultInjector* faults = nullptr);
  ~JsonlWriter();
  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  std::ostream& stream() { return out_; }
  // Flush + fsync. Throws WriteFault when either fails (a record that never
  // became durable must not look committed) or when a write:<seq>:ewrite
  // fault covers this sync. Safe to call from the sink's sync hook; the
  // destructor calls it too but demotes failures to stderr (destructors
  // must not throw).
  void sync();
  // Global 0-based counter of sync() calls across every JsonlWriter in the
  // process — the sequence number write-fault specs select on. Exposed so
  // tests can compute which sync a spec will hit.
  static std::uint64_t sync_sequence();

 private:
  std::ofstream out_;
  std::string path_;
  int fd_ = -1;
  const FaultInjector* faults_ = nullptr;
};

// Minimal field extraction for the repo's own (flat, non-nested) JSONL
// records; enough for resume scans and tests, not a general JSON parser.
std::optional<long long> json_int_field(std::string_view line,
                                        std::string_view key);
std::optional<std::string> json_string_field(std::string_view line,
                                             std::string_view key);
std::optional<double> json_double_field(std::string_view line,
                                        std::string_view key);
// Parses a flat integer array value ("[4,8,16]"; "[]" yields an empty
// vector). Anything else under the key yields nullopt.
std::optional<std::vector<int>> json_int_array_field(std::string_view line,
                                                     std::string_view key);
std::optional<bool> json_bool_field(std::string_view line,
                                    std::string_view key);

// What scan_jsonl_resume() recovered from a previous (possibly interrupted)
// run of the same sweep.
struct ResumeState {
  std::vector<bool> completed;     // by grid index; true = skip on resume
  std::size_t num_completed = 0;   // popcount of `completed`
  std::size_t num_failed = 0;      // completed cells whose record is a
                                   // structured failure record (they keep
                                   // the resumed sweep's exit code at 1)
};

// Parses `path` and marks every grid index that already has a record (a
// `"cell":i` field). Failure records count as completed — a cell that
// threw is a terminal outcome, not a hole. Validates the
// run-manifest header when present: `bench`, `grid_cells` and `base_seed`
// must match, or the scan throws std::runtime_error (resuming a different
// sweep onto this file would corrupt it, and one under another base seed
// would finish it with other cells). A missing file yields an empty state
// (fresh run).
ResumeState scan_jsonl_resume(const std::string& path, std::string_view bench,
                              std::size_t grid_size, std::uint64_t base_seed);

// The atomic run-manifest header every logging sweep writes (and syncs)
// before its first cell record; scan_jsonl_resume() checks it on --resume.
std::string run_header_line(std::string_view bench, std::size_t grid_size,
                            std::uint64_t base_seed);

// Opens (truncates, or appends when `append`) a JSONL output file, throwing
// std::runtime_error when the path is unwritable — a sweep must not
// silently drop its results. Prefer JsonlWriter for crash-safe sweeps; this
// remains for plain stream consumers.
std::ofstream open_jsonl(const std::string& path, bool append = false);

}  // namespace fl::runtime

// Durable job journal of the serve daemon — the piece that makes a kill -9
// of the whole daemon recoverable.
//
// One JSONL file, append-only, fsynced after every record (JsonlWriter):
//
//   {"record":"serve_job","event":"accepted","id":3,<full job spec>}
//   {"record":"serve_job","event":"terminal","id":3,"state":"done",
//    "reason":""}
//
// Invariants:
//   - "accepted" is written (and fsynced) before the client sees the
//     accepted response, so an acknowledged job is never lost.
//   - "terminal" is written only for done/failed/cancelled. An interrupted
//     job (daemon drain) writes NO terminal record — it stays pending, and
//     the next daemon replays it. Sweep jobs are replayed with resume=true
//     so their own cell-level checkpoint takes over from there.
//
// replay() scans the file on startup: every accepted id without a terminal
// record is returned for re-submission, and max_id seeds the id counter so
// restarted daemons never reuse an id. Unparseable lines (a record half
// written when the power went) are skipped with a stderr note — recovery
// must not be blocked by the very crash it recovers from.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/jsonl.h"
#include "serve/protocol.h"

namespace fl::serve {

class JobJournal {
 public:
  struct Replay {
    std::vector<std::pair<std::uint64_t, JobSpec>> pending;
    std::uint64_t max_id = 0;
    std::size_t records = 0;
  };

  // Scans an existing journal (missing file = empty replay). Call before
  // opening the journal for appending.
  static Replay replay(const std::string& path);

  // Opens `path` for appending. Throws std::runtime_error when unwritable.
  // `faults` overrides the global injector for write faults (tests).
  explicit JobJournal(const std::string& path,
                      const runtime::FaultInjector* faults = nullptr);

  // Both throw runtime::WriteFault when the append or fsync fails (ENOSPC,
  // EIO, or an injected write fault) — the daemon turns that into a job
  // rejection (accepted) or a loud stderr note (terminal; the job outcome
  // already happened and is reported to the client regardless).
  void record_accepted(std::uint64_t id, const JobSpec& spec);
  void record_terminal(std::uint64_t id, JobState state,
                       const std::string& reason);

 private:
  runtime::JsonlWriter writer_;
  std::mutex mu_;
};

}  // namespace fl::serve

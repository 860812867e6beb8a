// Wire protocol of the `fulllock serve` daemon: line-delimited JSON over a
// local stream socket, in the same flat-record conventions as the sweep
// JSONL files (runtime/jsonl.h) so one set of field helpers parses both.
//
// Requests (client -> daemon), one JSON object per line:
//
//   {"op":"submit","kind":"attack","locked_path":"l.bench",
//    "oracle_path":"o.bench","attack":"sat","attack_timeout_s":10,
//    "priority":5,"timeout_s":60,"trace":true}
//   {"op":"submit","kind":"sweep","bench_path":"c.bench","sizes":[4,8],
//    "replicas":2,"seed":17,"jsonl_path":"out.jsonl","resume":true}
//   {"op":"submit","kind":"lock","bench_path":"c.bench",
//    "out_path":"locked.bench","scheme":"sfll-hd",
//    "scheme_params":"keys=8,hd=1","sizes":[16],"seed":7}
//   {"op":"status"}            every job, plus a summary line
//   {"op":"status","id":3}     one job
//   {"op":"cancel","id":3}
//   {"op":"shutdown"}          graceful drain, as if SIGTERM arrived
//
// Responses (daemon -> client), one JSON object per line, each carrying an
// "event" discriminator:
//
//   {"event":"accepted","id":3,"queued":2}
//   {"event":"rejected","reason":"overloaded"}     admission backpressure
//   {"event":"rejected","reason":"draining"}       daemon is shutting down
//   {"event":"error","reason":"..."}               malformed request
//   {"event":"started","id":3}
//   {"event":"trace","id":3,...}                   per-DIP-iteration record
//   {"event":"cell","id":3,...}                    per-sweep-cell record
//   {"event":"terminal","id":3,"state":"done",...} exactly one per job
//   {"event":"job","id":3,"state":"running",...}   status answers
//   {"event":"status","jobs":4,"queued":1,...}     status summary
//
// Ordering: events of one job are delivered in order, and "terminal" is
// always last — but the "accepted" response is sent concurrently with job
// execution, so a fast job's "started" may reach the client before the
// "accepted" line. Clients key on event types, not line positions.
//
// Every job runs once. Terminal states: "done" (ran to an attack/sweep
// conclusion — including attack-status timeout), "failed" (the job threw —
// a sweep job does when a cell failed, in this run or in the checkpoint it
// resumed — overran its wall budget, or a cancellation stalled past the
// watchdog's grace), "cancelled" (explicit cancel op or client
// disconnect), "interrupted" (daemon drain cut it short — the job journal
// keeps it pending, so a restarted daemon resumes it from its durable
// checkpoint).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/jsonl.h"

namespace fl::serve {

enum class JobKind : std::uint8_t { kLock, kAttack, kSweep };
const char* to_string(JobKind kind);

enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  kInterrupted,  // drain checkpoint: resumable, not terminal-in-journal
};
const char* to_string(JobState state);
bool is_terminal(JobState state);

// A malformed or invalid request. The message names the offending field and
// what was expected, mirroring the CLI's strict flag validation.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& message)
      : std::runtime_error(message) {}
};

struct JobSpec {
  JobKind kind = JobKind::kAttack;
  int priority = 0;           // higher runs first among queued jobs
  double timeout_s = 0.0;     // job wall budget (0 = daemon default)
  std::size_t memory_limit_mb = 0;
  bool detach = false;        // keep running when the client disconnects
  bool trace = false;         // stream per-iteration trace events
  // attack
  std::string locked_path;
  std::string oracle_path;
  std::string attack = "auto";
  double attack_timeout_s = 60.0;
  // sweep / lock
  std::string bench_path;
  std::string out_path;    // lock
  std::string jsonl_path;  // sweep: durable checkpoint file (required)
  // lock/sweep: registry scheme name (lock::scheme_names()) plus its
  // "key=value,..." parameters — validated at admission via the scheme's
  // own validate(), so a bad submit is rejected before it queues.
  std::string scheme = "full-lock";
  std::string scheme_params;
  std::vector<int> sizes;  // scheme size axis (sweep/lock); empty: the
                           // sweep's {4,8,16} / the scheme's own default
  int replicas = 1;        // sweep: seeds per size
  std::uint64_t seed = 17;
  bool resume = false;     // sweep: continue jsonl_path if it exists
};

// Appends every JobSpec field to `o` (flat, deterministic order). Shared by
// the submit request serializer and the daemon's job journal, so a journaled
// job replays from exactly what the client sent.
void append_spec_fields(runtime::JsonObject& o, const JobSpec& spec);
// Parses the spec fields back out of a request/journal line. Missing fields
// keep their defaults; type mismatches throw ProtocolError. Unknown fields
// are ignored, so journal records and requests that carry fields a spec no
// longer has still parse.
JobSpec parse_spec_fields(const std::string& line);
// Field/bounds validation (paths present for the kind, sane numeric ranges)
// plus the scheme check: a lock job's scheme validates the job's own sizes
// and params, as `fulllock lock` does; a sweep job passes the sweep's
// check. Throws ProtocolError naming the field or carrying the scheme's
// message.
void validate_spec(const JobSpec& spec);

struct Request {
  enum class Op : std::uint8_t { kSubmit, kStatus, kCancel, kShutdown };
  Op op = Op::kStatus;
  std::optional<std::uint64_t> id;  // cancel (required), status (optional)
  JobSpec spec;                     // submit
};

// Parses and validates one request line; throws ProtocolError on junk.
Request parse_request(const std::string& line);

// Client-side request serializers.
std::string submit_line(const JobSpec& spec);
std::string status_line(std::optional<std::uint64_t> id = std::nullopt);
std::string cancel_line(std::uint64_t id);
std::string shutdown_line();

}  // namespace fl::serve

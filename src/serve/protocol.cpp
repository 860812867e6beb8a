#include "serve/protocol.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "attacks/registry.h"
#include "attacks/sweep.h"
#include "locking/scheme.h"

namespace fl::serve {

using runtime::JsonObject;

namespace {

[[noreturn]] void bad(const std::string& what) { throw ProtocolError(what); }

JobKind parse_kind(const std::string& text) {
  if (text == "lock") return JobKind::kLock;
  if (text == "attack") return JobKind::kAttack;
  if (text == "sweep") return JobKind::kSweep;
  bad("unknown job kind '" + text + "' (expected lock|attack|sweep)");
}

// Bounds mirroring the CLI's strict flag validation: reject values that a
// later narrowing cast or duration arithmetic would mangle silently.
long long int_in(const std::string& line, std::string_view key,
                 long long fallback, long long min_value,
                 long long max_value) {
  const auto value = runtime::json_int_field(line, key);
  if (!value.has_value()) return fallback;
  if (*value < min_value || *value > max_value) {
    bad(std::string(key) + " must be in [" + std::to_string(min_value) + ", " +
        std::to_string(max_value) + "], got " + std::to_string(*value));
  }
  return *value;
}

double seconds_in(const std::string& line, std::string_view key,
                  double fallback) {
  const auto value = runtime::json_double_field(line, key);
  if (!value.has_value()) return fallback;
  if (!(*value >= 0.0) || !std::isfinite(*value) || *value > 1e9) {
    bad(std::string(key) + " must be a finite number of seconds in [0, 1e9]");
  }
  return *value;
}

}  // namespace

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kLock: return "lock";
    case JobKind::kAttack: return "attack";
    case JobKind::kSweep: return "sweep";
  }
  return "?";
}

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kInterrupted: return "interrupted";
  }
  return "?";
}

bool is_terminal(JobState state) {
  switch (state) {
    case JobState::kDone:
    case JobState::kFailed:
    case JobState::kCancelled:
    case JobState::kInterrupted:
      return true;
    default:
      return false;
  }
}

void append_spec_fields(JsonObject& o, const JobSpec& spec) {
  o.field("kind", to_string(spec.kind))
      .field("priority", spec.priority)
      .field("timeout_s", spec.timeout_s)
      .field("memory_limit_mb", spec.memory_limit_mb)
      .field("detach", spec.detach)
      .field("trace", spec.trace);
  if (!spec.locked_path.empty()) o.field("locked_path", spec.locked_path);
  if (!spec.oracle_path.empty()) o.field("oracle_path", spec.oracle_path);
  o.field("attack", spec.attack)
      .field("attack_timeout_s", spec.attack_timeout_s)
      .field("scheme", spec.scheme);
  if (!spec.scheme_params.empty()) {
    o.field("scheme_params", spec.scheme_params);
  }
  if (!spec.bench_path.empty()) o.field("bench_path", spec.bench_path);
  if (!spec.out_path.empty()) o.field("out_path", spec.out_path);
  if (!spec.jsonl_path.empty()) o.field("jsonl_path", spec.jsonl_path);
  if (!spec.sizes.empty()) o.field("sizes", spec.sizes);
  o.field("replicas", spec.replicas)
      .field("seed", spec.seed)
      .field("resume", spec.resume);
}

JobSpec parse_spec_fields(const std::string& line) {
  JobSpec spec;
  const auto kind = runtime::json_string_field(line, "kind");
  if (!kind.has_value()) bad("submit requires a \"kind\" field");
  spec.kind = parse_kind(*kind);

  spec.priority = static_cast<int>(int_in(line, "priority", 0, -1000, 1000));
  spec.timeout_s = seconds_in(line, "timeout_s", 0.0);
  spec.memory_limit_mb = static_cast<std::size_t>(
      int_in(line, "memory_limit_mb", 0, 0, 1LL << 40));
  spec.detach = runtime::json_bool_field(line, "detach").value_or(false);
  spec.trace = runtime::json_bool_field(line, "trace").value_or(false);

  if (auto v = runtime::json_string_field(line, "locked_path")) {
    spec.locked_path = *v;
  }
  if (auto v = runtime::json_string_field(line, "oracle_path")) {
    spec.oracle_path = *v;
  }
  if (auto v = runtime::json_string_field(line, "attack")) spec.attack = *v;
  spec.attack_timeout_s = seconds_in(line, "attack_timeout_s", 60.0);
  if (auto v = runtime::json_string_field(line, "scheme")) spec.scheme = *v;
  if (auto v = runtime::json_string_field(line, "scheme_params")) {
    spec.scheme_params = *v;
  }

  if (auto v = runtime::json_string_field(line, "bench_path")) {
    spec.bench_path = *v;
  }
  if (auto v = runtime::json_string_field(line, "out_path")) spec.out_path = *v;
  if (auto v = runtime::json_string_field(line, "jsonl_path")) {
    spec.jsonl_path = *v;
  }
  if (auto v = runtime::json_int_array_field(line, "sizes")) spec.sizes = *v;
  spec.replicas = static_cast<int>(int_in(line, "replicas", 1, 1, 1000000));
  spec.seed = static_cast<std::uint64_t>(
      int_in(line, "seed", 17, 0, std::numeric_limits<long long>::max()));
  spec.resume = runtime::json_bool_field(line, "resume").value_or(false);
  return spec;
}

void validate_spec(const JobSpec& spec) {
  for (const int n : spec.sizes) {
    if (n < 2 || n > 4096) {
      bad("sizes entries must be scheme sizes in [2, 4096], got " +
          std::to_string(n));
    }
  }
  if (!attacks::known_attack(spec.attack)) {
    bad("unknown attack '" + spec.attack + "' (known: " +
        attacks::attack_names() + ")");
  }
  switch (spec.kind) {
    case JobKind::kAttack:
      if (spec.locked_path.empty()) bad("attack job requires locked_path");
      if (spec.oracle_path.empty()) bad("attack job requires oracle_path");
      return;
    case JobKind::kSweep:
      if (spec.bench_path.empty()) bad("sweep job requires bench_path");
      if (spec.jsonl_path.empty()) {
        bad("sweep job requires jsonl_path (the durable checkpoint file "
            "that makes the job resumable)");
      }
      break;
    case JobKind::kLock:
      if (spec.bench_path.empty()) bad("lock job requires bench_path");
      if (spec.out_path.empty()) bad("lock job requires out_path");
      break;
  }
  // Lock and sweep jobs pass the scheme check the CLI runs before it reads
  // the circuit: a lock job its scheme's validate() on its own sizes and
  // params (as `fulllock lock`), a sweep job the sweep's. The ProtocolError
  // carries the sweep's or the scheme's own message.
  try {
    const lock::LockScheme* scheme = lock::find_scheme(spec.scheme);
    if (spec.kind == JobKind::kLock && scheme != nullptr) {
      scheme->validate(
          lock::make_options(spec.seed, spec.sizes, spec.scheme_params));
    } else {
      // Also names an unknown scheme, for either kind. The replica does
      // not change a cell's parameters, so one replica checks them all.
      attacks::validate_sweep(attacks::scheme_grid(
          {spec.scheme}, spec.sizes, spec.scheme_params, 1, spec.seed));
    }
  } catch (const std::invalid_argument& e) {
    bad(e.what());
  }
}

Request parse_request(const std::string& line) {
  const auto op = runtime::json_string_field(line, "op");
  if (!op.has_value()) {
    bad("request has no \"op\" field (expected submit|status|cancel|shutdown)");
  }
  Request request;
  const auto id = runtime::json_int_field(line, "id");
  if (id.has_value()) {
    if (*id < 1) bad("id must be a positive job id");
    request.id = static_cast<std::uint64_t>(*id);
  }
  if (*op == "submit") {
    request.op = Request::Op::kSubmit;
    request.spec = parse_spec_fields(line);
    validate_spec(request.spec);
  } else if (*op == "status") {
    request.op = Request::Op::kStatus;
  } else if (*op == "cancel") {
    request.op = Request::Op::kCancel;
    if (!request.id.has_value()) bad("cancel requires an \"id\" field");
  } else if (*op == "shutdown") {
    request.op = Request::Op::kShutdown;
  } else {
    bad("unknown op '" + *op + "' (expected submit|status|cancel|shutdown)");
  }
  return request;
}

std::string submit_line(const JobSpec& spec) {
  JsonObject o;
  o.field("op", "submit");
  append_spec_fields(o, spec);
  return o.str();
}

std::string status_line(std::optional<std::uint64_t> id) {
  JsonObject o;
  o.field("op", "status");
  if (id.has_value()) o.field("id", *id);
  return o.str();
}

std::string cancel_line(std::uint64_t id) {
  JsonObject o;
  return o.field("op", "cancel").field("id", id).str();
}

std::string shutdown_line() {
  JsonObject o;
  return o.field("op", "shutdown").str();
}

}  // namespace fl::serve

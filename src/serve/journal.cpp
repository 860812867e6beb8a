#include "serve/journal.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

namespace fl::serve {

using runtime::JsonObject;

JobJournal::Replay JobJournal::replay(const std::string& path) {
  Replay replay;
  std::ifstream in(path);
  if (!in) return replay;  // no journal yet: fresh daemon
  std::string line;
  std::map<std::uint64_t, JobSpec> pending;  // id order = original order
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const auto record = runtime::json_string_field(line, "record");
    if (!record.has_value() || *record != "serve_job") continue;
    const auto event = runtime::json_string_field(line, "event");
    const auto id = runtime::json_int_field(line, "id");
    if (!event.has_value() || !id.has_value() || *id < 1) {
      std::fprintf(stderr,
                   "[serve] journal %s:%zu: skipping unparseable record "
                   "(torn write from a crash?)\n",
                   path.c_str(), lineno);
      continue;
    }
    ++replay.records;
    const auto job_id = static_cast<std::uint64_t>(*id);
    replay.max_id = std::max(replay.max_id, job_id);
    if (*event == "accepted") {
      try {
        pending[job_id] = parse_spec_fields(line);
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "[serve] journal %s:%zu: dropping job %llu: %s\n",
                     path.c_str(), lineno,
                     static_cast<unsigned long long>(job_id), e.what());
      }
    } else if (*event == "terminal") {
      pending.erase(job_id);
    }
  }
  for (auto& [id, spec] : pending) {
    // A replayed sweep continues from its cell checkpoint rather than
    // recomputing finished cells; lock/attack jobs simply run again.
    if (spec.kind == JobKind::kSweep) spec.resume = true;
    // The submitting client is gone; nobody is left to cancel-on-disconnect.
    spec.detach = true;
    replay.pending.emplace_back(id, std::move(spec));
  }
  return replay;
}

JobJournal::JobJournal(const std::string& path,
                       const runtime::FaultInjector* faults)
    : writer_(path, /*append=*/true, faults) {}

void JobJournal::record_accepted(std::uint64_t id, const JobSpec& spec) {
  JsonObject o;
  o.field("record", "serve_job").field("event", "accepted").field("id", id);
  append_spec_fields(o, spec);
  std::lock_guard<std::mutex> lock(mu_);
  writer_.stream() << o.str() << '\n';
  writer_.sync();  // throws WriteFault on ENOSPC/EIO/injected fault
}

void JobJournal::record_terminal(std::uint64_t id, JobState state,
                                 const std::string& reason) {
  JsonObject o;
  o.field("record", "serve_job")
      .field("event", "terminal")
      .field("id", id)
      .field("state", to_string(state))
      .field("reason", reason);
  std::lock_guard<std::mutex> lock(mu_);
  writer_.stream() << o.str() << '\n';
  writer_.sync();
}

}  // namespace fl::serve

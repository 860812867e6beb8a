#include "serve/daemon.h"

#include <chrono>
#include <cstdio>

#include "runtime/runner.h"
#include "runtime/signal.h"
#include "serve/jobs.h"

namespace fl::serve {

using runtime::JsonObject;

ServeArgs parse_serve_args(int argc, char** argv, int first) {
  using runtime::flag_value;
  ServeArgs args;
  for (int i = first; i < argc; ++i) {
    if (auto v = flag_value("--state", argc, argv, i)) {
      args.journal_path = *v;
    } else if (auto v = flag_value("--workers", argc, argv, i)) {
      args.workers = static_cast<int>(
          runtime::parse_int_flag("--workers", *v, 1, 1 << 10));
    } else if (auto v = flag_value("--max-queue", argc, argv, i)) {
      args.max_queue = static_cast<std::size_t>(
          runtime::parse_int_flag("--max-queue", *v, 1, 1 << 20));
    } else if (auto v = flag_value("--job-timeout", argc, argv, i)) {
      args.job_timeout_s = runtime::parse_seconds_flag("--job-timeout", *v);
    } else if (auto v = flag_value("--stall-grace", argc, argv, i)) {
      args.stall_grace_s = runtime::parse_seconds_flag("--stall-grace", *v);
      if (args.stall_grace_s <= 0.0) {
        throw std::invalid_argument(
            "--stall-grace must be > 0 seconds (the watchdog needs a real "
            "grace window before declaring a job stalled)");
      }
    } else if (const std::string_view arg = argv[i];
               args.socket_path.empty() && !arg.empty() && arg[0] != '-') {
      args.socket_path = arg;
    } else {
      throw std::invalid_argument(
          "unknown serve argument '" + std::string(arg) +
          "' (expected <socket> [--state FILE] [--workers N] [--max-queue N] "
          "[--job-timeout S] [--stall-grace S])");
    }
  }
  if (args.socket_path.empty()) {
    throw std::invalid_argument("serve requires a socket path");
  }
  return args;
}

Daemon::Daemon(ServeArgs args, JobRunner runner,
               const runtime::FaultInjector* faults)
    : args_(std::move(args)),
      runner_(runner ? std::move(runner) : default_job_runner()),
      faults_override_(faults) {}

Daemon::~Daemon() {
  stopping_.store(true, std::memory_order_relaxed);
  if (listener_.has_value()) listener_->close();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (scheduler_.has_value()) scheduler_->drain();
  reap_readers(/*all=*/true);
  scheduler_.reset();  // before the journal: terminal events may journal
  journal_.reset();
  listener_.reset();
}

const runtime::FaultInjector& Daemon::faults() const {
  return faults_override_ != nullptr ? *faults_override_
                                     : runtime::FaultInjector::global();
}

void Daemon::start() {
  if (started_.exchange(true, std::memory_order_relaxed)) return;

  JobJournal::Replay replay;
  if (!args_.journal_path.empty()) {
    replay = JobJournal::replay(args_.journal_path);
    journal_.emplace(args_.journal_path, faults_override_);
  }
  next_id_.store(replay.max_id + 1, std::memory_order_relaxed);

  SchedulerConfig config;
  config.workers = args_.workers;
  config.max_queue = args_.max_queue;
  config.default_job_timeout_s = args_.job_timeout_s;
  config.stall_grace_s = args_.stall_grace_s;
  config.faults = faults_override_;
  config.first_id = replay.max_id + 1;
  scheduler_.emplace(std::move(config), runner_);

  // Re-enqueue jobs the previous daemon accepted but never finished. Their
  // submitting clients are long gone; events go to the journal only.
  for (auto& [id, spec] : replay.pending) {
    std::fprintf(stderr, "[serve] replaying job %llu (%s) from %s\n",
                 static_cast<unsigned long long>(id), to_string(spec.kind),
                 args_.journal_path.c_str());
    const Submission sub = submit_job(std::move(spec), nullptr, id);
    if (sub.id == 0) {
      std::fprintf(stderr, "[serve] replay of job %llu rejected: %s\n",
                   static_cast<unsigned long long>(id),
                   sub.reject_reason.c_str());
    }
  }

  listener_.emplace(args_.socket_path);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

int Daemon::serve_forever(bool install_signals) {
  runtime::CancelToken token;
  std::optional<runtime::ScopedSignalHandler> signals;
  if (install_signals) signals.emplace(token);
  start();
  while (!token.cancelled() && !shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const int signo =
      install_signals ? runtime::ScopedSignalHandler::last_signal() : 0;
  std::fprintf(stderr, "[serve] draining (%s)...\n",
               signo != 0 ? "signal" : "shutdown requested");
  drain();
  const bool durable = !journal_broken_.load(std::memory_order_relaxed);
  std::fprintf(stderr, "[serve] drained%s\n",
               durable ? "" : " (journal lost durability!)");
  if (signo != 0) return 128 + signo;
  return durable ? 0 : 1;
}

void Daemon::drain() {
  stopping_.store(true, std::memory_order_relaxed);
  if (listener_.has_value()) listener_->close();  // stop accepting
  if (scheduler_.has_value()) scheduler_->drain();
  if (accept_thread_.joinable()) accept_thread_.join();
  reap_readers(/*all=*/true);
}

void Daemon::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = listener_->accept_with_timeout(200);
    reap_readers(/*all=*/false);
    if (fd < 0) continue;
    auto conn = std::make_shared<ClientConn>(
        fd, next_conn_id_.fetch_add(1, std::memory_order_relaxed),
        faults_override_);
    std::lock_guard<std::mutex> lock(conns_mu_);
    Reader reader;
    reader.conn = conn;
    reader.thread = std::thread([this, conn] {
      conn->read_lines(
          [this, &conn](const std::string& line) { handle_line(conn, line); });
      on_disconnect(conn);
    });
    readers_.push_back(std::move(reader));
  }
}

void Daemon::reap_readers(bool all) {
  std::vector<Reader> to_join;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = readers_.begin(); it != readers_.end();) {
      if (all || it->conn->closed()) {
        if (all) it->conn->close();
        to_join.push_back(std::move(*it));
        it = readers_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (Reader& reader : to_join) {
    if (reader.thread.joinable()) reader.thread.join();
  }
}

Daemon::Submission Daemon::submit_job(JobSpec spec,
                                      const std::shared_ptr<ClientConn>& conn,
                                      std::uint64_t forced_id) {
  Submission sub;
  // Fast-path admission checks before anything touches the journal.
  if (shutdown_requested() || stopping_.load(std::memory_order_relaxed) ||
      scheduler_->draining()) {
    sub.reject_reason = "draining";
    return sub;
  }
  const std::uint64_t id =
      forced_id != 0 ? forced_id
                     : next_id_.fetch_add(1, std::memory_order_relaxed);

  // Durability before acknowledgment: the journal's "accepted" record is
  // fsynced before the scheduler (or the client) sees the job. Replayed
  // jobs (forced_id) are already journaled.
  if (journal_.has_value() && forced_id == 0) {
    try {
      journal_->record_accepted(id, spec);
    } catch (const std::exception& e) {
      sub.reject_reason = std::string("journal write failed: ") + e.what();
      return sub;
    }
  }

  const bool detach = spec.detach;
  const JobKind kind = spec.kind;
  std::weak_ptr<ClientConn> weak_conn = conn;
  EventFn events = [this, weak_conn](const JobEvent& event) {
    if (event.type == "terminal" && journal_.has_value() &&
        event.state != JobState::kInterrupted) {
      // Interrupted jobs stay pending on purpose: the next daemon resumes
      // them. Everything else gets its terminal record — and a journal that
      // cannot commit one anymore must make the eventual exit loud.
      try {
        const auto reason = runtime::json_string_field(event.line, "reason");
        journal_->record_terminal(event.id, event.state, reason.value_or(""));
      } catch (const std::exception& e) {
        journal_broken_.store(true, std::memory_order_relaxed);
        std::fprintf(stderr,
                     "[serve] FAILED to journal terminal record of job "
                     "%llu: %s\n",
                     static_cast<unsigned long long>(event.id), e.what());
      }
    }
    if (const auto conn = weak_conn.lock()) conn->send_line(event.line);
  };

  std::string reject;
  const std::uint64_t got =
      scheduler_->submit(std::move(spec), std::move(events), &reject, id);
  if (got == 0) {
    // Race with drain or a full queue after the accepted record was
    // journaled: neutralize it so replay does not resurrect the job.
    if (journal_.has_value() && forced_id == 0) {
      try {
        journal_->record_terminal(id, JobState::kCancelled,
                                  "rejected: " + reject);
      } catch (const std::exception& e) {
        journal_broken_.store(true, std::memory_order_relaxed);
        std::fprintf(stderr, "[serve] FAILED to journal rejection of job "
                             "%llu: %s\n",
                     static_cast<unsigned long long>(id), e.what());
      }
    }
    sub.reject_reason = reject;
    return sub;
  }
  if (conn != nullptr && !detach) {
    std::lock_guard<std::mutex> lock(conns_mu_);
    owned_jobs_[conn->id()].push_back(got);
  }
  (void)kind;
  sub.id = got;
  return sub;
}

void Daemon::handle_line(const std::shared_ptr<ClientConn>& conn,
                         const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& e) {
    JsonObject o;
    o.field("event", "error").field("reason", e.what());
    conn->send_line(o.str());
    return;
  }
  switch (request.op) {
    case Request::Op::kSubmit: {
      const Submission sub = submit_job(std::move(request.spec), conn, 0);
      JsonObject o;
      if (sub.id != 0) {
        o.field("event", "accepted")
            .field("id", sub.id)
            .field("queued", scheduler_->stats().queued);
      } else {
        o.field("event", "rejected").field("reason", sub.reject_reason);
      }
      conn->send_line(o.str());
      break;
    }
    case Request::Op::kStatus: {
      if (request.id.has_value()) {
        const auto info = scheduler_->info(*request.id);
        JsonObject o;
        if (info.has_value()) {
          o.field("event", "job")
              .field("id", info->id)
              .field("state", to_string(info->state))
              .field("kind", to_string(info->kind))
              .field("priority", info->priority);
          if (!info->reason.empty()) o.field("reason", info->reason);
        } else {
          o.field("event", "error")
              .field("reason",
                     "unknown job id " + std::to_string(*request.id));
        }
        conn->send_line(o.str());
        break;
      }
      for (const JobInfo& info : scheduler_->jobs()) {
        JsonObject o;
        o.field("event", "job")
            .field("id", info.id)
            .field("state", to_string(info.state))
            .field("kind", to_string(info.kind))
            .field("priority", info.priority);
        if (!info.reason.empty()) o.field("reason", info.reason);
        if (!conn->send_line(o.str())) return;
      }
      // The summary is last: clients treat it as the end-of-status marker.
      const SchedulerStats stats = scheduler_->stats();
      JsonObject o;
      o.field("event", "status")
          .field("queued", stats.queued)
          .field("running", stats.running)
          .field("done", stats.done)
          .field("failed", stats.failed)
          .field("cancelled", stats.cancelled)
          .field("interrupted", stats.interrupted)
          .field("draining", stats.draining);
      conn->send_line(o.str());
      break;
    }
    case Request::Op::kCancel: {
      const bool ok =
          scheduler_->cancel(*request.id, "cancelled by client request");
      JsonObject o;
      o.field("event", "cancel_ack").field("id", *request.id).field("ok", ok);
      conn->send_line(o.str());
      break;
    }
    case Request::Op::kShutdown: {
      JsonObject o;
      o.field("event", "shutting_down");
      conn->send_line(o.str());
      request_shutdown();
      break;
    }
  }
}

void Daemon::on_disconnect(const std::shared_ptr<ClientConn>& conn) {
  conn->close();
  std::vector<std::uint64_t> owned;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    const auto it = owned_jobs_.find(conn->id());
    if (it != owned_jobs_.end()) {
      owned = std::move(it->second);
      owned_jobs_.erase(it);
    }
  }
  for (const std::uint64_t id : owned) {
    if (scheduler_->cancel(id, "client disconnected")) {
      std::fprintf(stderr,
                   "[serve] cancelled job %llu (client disconnected)\n",
                   static_cast<unsigned long long>(id));
    }
  }
}

}  // namespace fl::serve

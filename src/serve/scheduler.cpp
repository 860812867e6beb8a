#include "serve/scheduler.h"

#include <algorithm>
#include <cstdio>

namespace fl::serve {

using runtime::JsonObject;
using steady_clock = std::chrono::steady_clock;

namespace {

std::chrono::duration<double> seconds(double s) {
  return std::chrono::duration<double>(s);
}

double since(steady_clock::time_point start) {
  return std::chrono::duration<double>(steady_clock::now() - start).count();
}

}  // namespace

struct Scheduler::Job {
  std::uint64_t id = 0;
  JobSpec spec;
  EventFn events;

  // All remaining fields are guarded by Scheduler::mu_ except `token`
  // (internally atomic) and the emit bookkeeping below.
  JobState state = JobState::kQueued;
  std::string reason;
  runtime::CancelToken token;
  bool user_cancel = false;   // explicit cancel op / client disconnect
  bool drain_cancel = false;  // daemon drain — terminal state "interrupted"
  bool timed_out = false;     // watchdog wall-budget escalation
  bool abandoned = false;     // watchdog already emitted the terminal event
  bool cancel_pending = false;
  std::string cancel_reason;
  steady_clock::time_point cancel_requested_at{};
  steady_clock::time_point started{};
  std::optional<steady_clock::time_point> deadline;

  // Serializes event delivery per job and drops post-terminal stragglers
  // (a trace record racing the watchdog's stalled-terminal record).
  std::mutex emit_mu;
  bool terminal_emitted = false;
};

Scheduler::Scheduler(SchedulerConfig config, JobRunner runner)
    : config_(std::move(config)), runner_(std::move(runner)) {
  next_id_ = std::max<std::uint64_t>(1, config_.first_id);
  pool_.emplace(config_.workers);
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

Scheduler::~Scheduler() {
  drain();
  stop_watchdog_.store(true, std::memory_order_relaxed);
  if (watchdog_.joinable()) watchdog_.join();
  pool_.reset();
}

const runtime::FaultInjector& Scheduler::faults() const {
  return config_.faults != nullptr ? *config_.faults
                                   : runtime::FaultInjector::global();
}

std::uint64_t Scheduler::submit(JobSpec spec, EventFn events,
                                std::string* reject_reason,
                                std::uint64_t forced_id) {
  auto job = std::make_shared<Job>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.load(std::memory_order_relaxed)) {
      if (reject_reason != nullptr) *reject_reason = "draining";
      return 0;
    }
    if (num_queued_ >= config_.max_queue) {
      if (reject_reason != nullptr) *reject_reason = "overloaded";
      return 0;
    }
    job->id = forced_id != 0 ? forced_id : next_id_++;
    if (forced_id >= next_id_) next_id_ = forced_id + 1;
    job->spec = std::move(spec);
    job->events = std::move(events);
    jobs_[job->id] = job;
    ++num_queued_;
  }
  pool_->submit([this] { claim_and_run(); });
  return job->id;
}

bool Scheduler::cancel(std::uint64_t id, const std::string& reason) {
  std::shared_ptr<Job> job;
  bool was_queued = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || is_terminal(it->second->state)) return false;
    job = it->second;
    job->user_cancel = true;
    job->cancel_reason = reason;
    if (!job->cancel_pending) {
      job->cancel_pending = true;
      job->cancel_requested_at = steady_clock::now();
    }
    job->token.request();
    was_queued = job->state == JobState::kQueued;
  }
  if (was_queued) {
    // No runner is attached to a queued job; terminalize directly.
    // finish_job re-checks the state, so losing the race with a claim that
    // just started it is benign — the runner sees its token and stops.
    finish_job(job, JobState::kCancelled, reason, nullptr);
  }
  return true;
}

JobInfo Scheduler::info_locked(const Job& job) const {
  JobInfo info;
  info.id = job.id;
  info.kind = job.spec.kind;
  info.state = job.state;
  info.priority = job.spec.priority;
  info.reason = job.reason;
  return info;
}

std::optional<JobInfo> Scheduler::info(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return info_locked(*it->second);
}

std::vector<JobInfo> Scheduler::jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobInfo> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(info_locked(*job));
  return out;
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SchedulerStats stats = terminal_counts_;
  stats.queued = num_queued_;
  stats.running = num_running_;
  stats.draining = draining_.load(std::memory_order_relaxed);
  return stats;
}

void Scheduler::drain() {
  draining_.store(true, std::memory_order_relaxed);
  // The drain fault site: an injected stall here delays shutdown (bounded —
  // see FaultInjector::inject_site), an injected throw must not abort it.
  try {
    faults().inject_site("serve.drain");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[serve] drain fault (continuing): %s\n", e.what());
  }

  std::vector<std::shared_ptr<Job>> queued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, job] : jobs_) {
      if (job->state == JobState::kQueued) {
        queued.push_back(job);
      } else if (!is_terminal(job->state)) {
        job->drain_cancel = true;
        if (!job->cancel_pending) {
          job->cancel_pending = true;
          job->cancel_requested_at = steady_clock::now();
        }
        job->token.request();
      }
    }
  }
  for (const auto& job : queued) {
    // Queued jobs were never started: their durable state (if any) is
    // whatever the journal holds, so they stay pending there and resume on
    // restart.
    finish_job(job, JobState::kInterrupted, "daemon draining", nullptr);
  }
  pool_->wait_idle();
}

void Scheduler::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return num_queued_ == 0 && num_running_ == 0; });
}

void Scheduler::claim_and_run() {
  std::shared_ptr<Job> best;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, job] : jobs_) {
      if (job->state != JobState::kQueued) continue;
      // Highest priority first; FIFO (map order = submission order) within
      // a priority level.
      if (!best || job->spec.priority > best->spec.priority) best = job;
    }
    if (!best) return;  // its job was cancelled while queued
    best->state = JobState::kRunning;
    --num_queued_;
    ++num_running_;
    best->started = steady_clock::now();
    const double wall = best->spec.timeout_s > 0.0
                            ? best->spec.timeout_s
                            : config_.default_job_timeout_s;
    if (wall > 0.0) {
      best->deadline = best->started +
                       std::chrono::duration_cast<steady_clock::duration>(
                           seconds(wall));
    }
  }
  run_job(std::move(best));
}

void Scheduler::emit(const std::shared_ptr<Job>& job, JobEvent event) {
  std::lock_guard<std::mutex> lock(job->emit_mu);
  if (job->terminal_emitted) return;  // never stream past the terminal event
  if (event.type == "terminal") job->terminal_emitted = true;
  if (!job->events) return;
  try {
    job->events(event);
  } catch (...) {
    // A subscriber that throws (vanished client, full socket) must never
    // take the scheduler down; the daemon layer handles disconnects.
  }
}

void Scheduler::finish_job(const std::shared_ptr<Job>& job, JobState state,
                           std::string reason, const JobResult* result) {
  double wall_s = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (is_terminal(job->state)) return;  // someone (watchdog) beat us to it
    if (job->state == JobState::kQueued) {
      --num_queued_;
    } else {
      --num_running_;
    }
    job->state = state;
    job->reason = reason;
    switch (state) {
      case JobState::kDone: ++terminal_counts_.done; break;
      case JobState::kFailed: ++terminal_counts_.failed; break;
      case JobState::kCancelled: ++terminal_counts_.cancelled; break;
      case JobState::kInterrupted: ++terminal_counts_.interrupted; break;
      default: break;
    }
    if (job->started != steady_clock::time_point{}) {
      wall_s = since(job->started);
    }
  }
  cv_.notify_all();

  JsonObject o;
  o.field("event", "terminal")
      .field("id", job->id)
      .field("state", to_string(state))
      .field("kind", to_string(job->spec.kind));
  if (!reason.empty()) o.field("reason", reason);
  if (result != nullptr) o.merge(result->fields);
  o.field("wall_s", wall_s);

  JobEvent event;
  event.id = job->id;
  event.type = "terminal";
  event.state = state;
  event.line = o.str();
  emit(job, std::move(event));
}

void Scheduler::run_job(std::shared_ptr<Job> job) {
  {
    JsonObject o;
    o.field("event", "started").field("id", job->id);
    emit(job, JobEvent{job->id, "started", JobState::kRunning, o.str()});
  }

  std::optional<std::string> failure;  // set when the job threw
  try {
    // The worker fault site: FL_FAULT="site:serve.job:<kind>" fails the job
    // (throw/oom), stalls it against the job budget, or kills the whole
    // process (exit — the daemon crash-recovery test).
    faults().inject_site("serve.job", [this, &job] {
      return job->token.cancelled() ||
             draining_.load(std::memory_order_relaxed) ||
             !job->deadline.has_value() ||
             steady_clock::now() >= *job->deadline;
    });

    JobContext ctx;
    ctx.id = job->id;
    ctx.cancel = &job->token;
    ctx.deadline = job->deadline;
    ctx.faults = &faults();
    ctx.emit = [this, job](const char* type, JsonObject payload) {
      JsonObject o;
      o.field("event", type).field("id", job->id);
      o.merge(payload);
      emit(job, JobEvent{job->id, type, JobState::kRunning, o.str()});
    };

    JobResult result = runner_(job->spec, ctx);
    if (!result.interrupted && !job->token.cancelled()) {
      finish_job(job, JobState::kDone, "", &result);
      return;
    }
  } catch (const std::exception& e) {
    failure = e.what();
  } catch (...) {
    failure = "unknown exception";
  }

  // A cancellation (of any origin) wins over the failure it may have
  // caused. Its flags are written under mu_ (cancel, drain, watchdog).
  JobState state = JobState::kInterrupted;
  std::string reason = "daemon draining";
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (failure.has_value() && !job->token.cancelled()) {
      state = JobState::kFailed;
      reason = *failure;
    } else if (job->timed_out) {
      state = JobState::kFailed;
      reason = "wall budget exceeded" +
               (failure.has_value() ? " (" + *failure + ")" : "");
    } else if (job->user_cancel) {
      state = JobState::kCancelled;
      reason = job->cancel_reason.empty() ? "cancelled" : job->cancel_reason;
    }
  }
  finish_job(job, state, std::move(reason), nullptr);
}

void Scheduler::watchdog_loop() {
  const auto period = seconds(std::max(0.001, config_.watchdog_period_s));
  while (!stop_watchdog_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(period);
    const auto now = steady_clock::now();
    std::vector<std::pair<std::shared_ptr<Job>, double>> stalled;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [id, job] : jobs_) {
        if (is_terminal(job->state) || job->state == JobState::kQueued ||
            job->abandoned) {
          continue;
        }
        if (!job->cancel_pending && job->deadline.has_value() &&
            now >= *job->deadline) {
          job->timed_out = true;
          job->cancel_pending = true;
          job->cancel_requested_at = now;
          job->token.request();
        } else if (job->cancel_pending &&
                   now - job->cancel_requested_at >
                       seconds(config_.stall_grace_s)) {
          // The job ignored its cancellation past the grace period: declare
          // it stalled now so the client gets a terminal record promptly.
          // The worker slot stays occupied until the runaway returns; its
          // eventual result is discarded.
          job->abandoned = true;
          stalled.emplace_back(
              job, std::chrono::duration<double>(
                       now - job->cancel_requested_at)
                       .count());
        }
      }
    }
    for (const auto& [job, pending_s] : stalled) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.2f", pending_s);
      finish_job(job, JobState::kFailed,
                 std::string("stalled: ignored cancellation for ") + buf +
                     "s (watchdog gave up)",
                 nullptr);
    }
  }
}

}  // namespace fl::serve

// Job scheduler of the serve daemon: a bounded priority queue in front of
// the shared ThreadPool, with per-job cancellation, wall budgets, and a
// watchdog that escalates jobs which ignore cancellation. Every job runs
// once.
//
// Fault isolation is the design center: a job that throws, OOMs, or stalls
// produces a terminal "failed" event (with the reason) and nothing else —
// the worker thread, the queue, and every other job keep going. The only
// way a job takes the daemon down is FaultKind::kExit (simulated SIGKILL),
// which is precisely what the crash-recovery journal is for.
//
// Scheduling: the ThreadPool's queue stays FIFO; priorities are applied at
// claim time. submit() enqueues the job in a table and pushes one generic
// "claim" closure into the pool; each closure pops the highest-priority
// queued job (ties broken by submission order). N queued jobs ⇒ N pending
// closures, so every claim finds a job unless it was cancelled while queued.
//
// The watchdog thread enforces two budgets:
//   - wall: a running job past its deadline gets its cancel token requested
//     and is marked timed out; when the runner returns, the result is
//     discarded and the job fails with "wall budget exceeded".
//   - stall grace: a job whose cancellation has been pending longer than
//     stall_grace_s is declared stalled — the watchdog emits its terminal
//     "failed" record immediately (the client is not held hostage) and the
//     eventual runner return is discarded. The worker slot stays occupied
//     until the runaway actually returns; that is honest (the thread cannot
//     be reclaimed safely) and bounded in practice because every in-repo
//     runner polls its token.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/cancel.h"
#include "runtime/fault.h"
#include "runtime/jsonl.h"
#include "runtime/thread_pool.h"
#include "serve/protocol.h"

namespace fl::serve {

// Everything a job runner may touch besides its spec. Runners must poll
// `cancel` and honour `deadline`; the scheduler's watchdog escalates if they
// don't.
struct JobContext {
  std::uint64_t id = 0;
  const runtime::CancelToken* cancel = nullptr;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  const runtime::FaultInjector* faults = nullptr;
  // Streams a non-terminal event (trace/cell records) to the job's
  // subscriber. The scheduler stamps "event" and "id"; the runner provides
  // the payload fields. Never throws; events to a vanished client are
  // dropped.
  std::function<void(const char* type, runtime::JsonObject payload)> emit;
};

// What a runner reports back. `interrupted` means the runner observed its
// cancel token and stopped early with durable state intact (resumable);
// anything else it wants in the terminal record goes into `fields`, a
// still-open JsonObject the scheduler merges into the terminal event.
struct JobResult {
  bool interrupted = false;
  runtime::JsonObject fields;
};

using JobRunner = std::function<JobResult(const JobSpec&, JobContext&)>;

// A fully-formed response line plus enough structure for the daemon to act
// on it (journal terminal records, drop per-client subscriptions).
struct JobEvent {
  std::uint64_t id = 0;
  std::string type;   // "started" | "trace" | "cell" | "terminal"
  JobState state = JobState::kQueued;  // meaningful for "terminal"
  std::string line;   // serialized JSON, no trailing newline
};
using EventFn = std::function<void(const JobEvent&)>;

struct SchedulerConfig {
  int workers = 1;
  std::size_t max_queue = 16;         // queued-but-not-running admission cap
  double default_job_timeout_s = 0.0; // applied when spec.timeout_s == 0
                                      // (0 = unlimited)
  double watchdog_period_s = 0.02;
  double stall_grace_s = 2.0;         // cancelled -> stalled escalation
  const runtime::FaultInjector* faults = nullptr;  // nullptr = global()
  std::uint64_t first_id = 1;         // journal replay seeds this past old ids
};

struct JobInfo {
  std::uint64_t id = 0;
  JobKind kind = JobKind::kAttack;
  JobState state = JobState::kQueued;
  int priority = 0;
  std::string reason;
};

struct SchedulerStats {
  std::size_t queued = 0;
  std::size_t running = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::size_t cancelled = 0;
  std::size_t interrupted = 0;
  bool draining = false;
};

class Scheduler {
 public:
  Scheduler(SchedulerConfig config, JobRunner runner);
  ~Scheduler();  // drains
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Admission control. Returns the job id, or 0 with *reject_reason set to
  // "overloaded" (bounded queue full) or "draining". `events` receives every
  // event of this job, from a scheduler-internal thread, never under the
  // scheduler lock; exceptions from it are swallowed. `forced_id` (journal
  // replay) bypasses the id counter but still respects admission.
  std::uint64_t submit(JobSpec spec, EventFn events, std::string* reject_reason,
                       std::uint64_t forced_id = 0);

  // Cooperative cancel. Queued jobs become terminal immediately; running
  // jobs get their token requested (the watchdog escalates if ignored).
  // False when the id is unknown or already terminal.
  bool cancel(std::uint64_t id, const std::string& reason = "cancelled");

  std::optional<JobInfo> info(std::uint64_t id) const;
  std::vector<JobInfo> jobs() const;
  SchedulerStats stats() const;

  // Graceful drain: stop admitting, fail over queued jobs to "interrupted"
  // (resumable — the journal keeps them pending), request every running
  // job's token with drain semantics, and wait for the workers. Idempotent.
  void drain();
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  // Blocks until no job is queued or running (test/shutdown helper).
  void wait_idle();

 private:
  struct Job;

  const runtime::FaultInjector& faults() const;
  void claim_and_run();
  void run_job(std::shared_ptr<Job> job);
  void watchdog_loop();
  void emit(const std::shared_ptr<Job>& job, JobEvent event);
  void finish_job(const std::shared_ptr<Job>& job, JobState state,
                  std::string reason, const JobResult* result);
  JobInfo info_locked(const Job& job) const;

  SchedulerConfig config_;
  JobRunner runner_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_watchdog_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;  // wait_idle
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::uint64_t next_id_ = 1;
  std::size_t num_queued_ = 0;
  std::size_t num_running_ = 0;
  SchedulerStats terminal_counts_;  // done/failed/cancelled/interrupted only

  std::optional<runtime::ThreadPool> pool_;  // before watchdog_: jobs first
  std::thread watchdog_;
};

}  // namespace fl::serve

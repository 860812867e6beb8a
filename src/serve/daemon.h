// The `fulllock serve` daemon: accepts lock/attack/sweep jobs over a
// line-delimited JSON protocol on an AF_UNIX socket, schedules them on the
// shared thread pool with per-job priorities and budgets, runs each once,
// streams trace events back to submitting clients, and survives every
// failure mode short of SIGKILL — which the durable job journal turns into
// a restart-and-resume instead of lost work.
//
// Composition (one object per concern, each individually testable):
//   UnixListener + ClientConn  (session.h)  socket plumbing
//   Scheduler                  (scheduler.h) queueing, budgets, watchdog
//   JobJournal                 (journal.h)   crash-recovery record
//   default_job_runner         (jobs.h)      the actual lock/attack/sweep
//
// Lifecycle:
//   start()            replay the journal, re-enqueue pending jobs
//                      (sweeps with resume=true), bind + listen, spawn the
//                      accept thread
//   serve_forever()    install the SIGINT/SIGTERM handler and block; the
//                      first signal (or a shutdown op) starts the graceful
//                      drain: stop accepting, reject new submissions with
//                      "draining", cancel in-flight jobs cooperatively
//                      (their checkpoints stay resumable), wait, fsync,
//                      exit 0 or 128+signo
//
// A second signal falls through to SIG_DFL and kills the process — the
// escape hatch, after which the journal replay does its job.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fault.h"
#include "serve/journal.h"
#include "serve/scheduler.h"
#include "serve/session.h"

namespace fl::serve {

struct ServeArgs {
  std::string socket_path;
  std::string journal_path;      // --state FILE; empty = no crash recovery
  int workers = 1;               // --workers
  std::size_t max_queue = 16;    // --max-queue (admission bound)
  double job_timeout_s = 0.0;    // --job-timeout (default per-job wall, 0 = unlimited)
  double stall_grace_s = 2.0;    // --stall-grace (watchdog escalation)
};

// Strict flag parsing for the serve subcommand; argv[first] is the socket
// path. Throws std::invalid_argument naming the flag and accepted range on
// junk, zero/negative where not allowed, or overflow.
ServeArgs parse_serve_args(int argc, char** argv, int first);

class Daemon {
 public:
  // `runner` defaults to the production lock/attack/sweep runner; tests
  // inject synthetic ones. `faults` overrides FL_FAULT (tests).
  explicit Daemon(ServeArgs args, JobRunner runner = {},
                  const runtime::FaultInjector* faults = nullptr);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Journal replay + bind + accept thread. Throws when the socket or the
  // journal cannot be set up. Idempotent.
  void start();

  // start() + block until a signal or shutdown op, then drain. Returns the
  // process exit code (0, 1 when the journal lost durability, 128+signo).
  // `install_signals` false lets tests drive shutdown via request_shutdown()
  // without touching the process-global handler.
  int serve_forever(bool install_signals = true);

  // Triggers the graceful drain (the shutdown op calls this).
  void request_shutdown() {
    shutdown_requested_.store(true, std::memory_order_relaxed);
  }
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  const ServeArgs& args() const { return args_; }
  Scheduler& scheduler() { return *scheduler_; }

 private:
  struct Submission {
    std::uint64_t id = 0;       // 0 = rejected
    std::string reject_reason;  // set when id == 0
  };

  const runtime::FaultInjector& faults() const;
  void accept_loop();
  void reap_readers(bool all);
  void handle_line(const std::shared_ptr<ClientConn>& conn,
                   const std::string& line);
  // Admission: journal "accepted" (durably) before the scheduler sees the
  // job, so an acknowledged job can never be lost to a crash.
  Submission submit_job(JobSpec spec, const std::shared_ptr<ClientConn>& conn,
                        std::uint64_t forced_id);
  void on_disconnect(const std::shared_ptr<ClientConn>& conn);
  void drain();

  ServeArgs args_;
  JobRunner runner_;
  const runtime::FaultInjector* faults_override_;
  std::optional<JobJournal> journal_;
  std::atomic<bool> journal_broken_{false};  // a terminal record never synced
  std::optional<Scheduler> scheduler_;
  std::optional<UnixListener> listener_;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_conn_id_{1};

  std::mutex conns_mu_;
  struct Reader {
    std::thread thread;
    std::shared_ptr<ClientConn> conn;
  };
  std::vector<Reader> readers_;
  // Live jobs each connection owns (cancel-on-disconnect, unless detached).
  std::map<std::uint64_t, std::vector<std::uint64_t>> owned_jobs_;
};

}  // namespace fl::serve

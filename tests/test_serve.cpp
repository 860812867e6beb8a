// Unit tests of the serve daemon's pieces below the socket: wire protocol
// parsing/validation, the crash-recovery job journal, the scheduler's fault
// isolation (throw/OOM/stall/wall budget, one run per job, priorities,
// admission control, drain), and the serve CLI flag validation.
// Daemon-over-socket behaviour lives in test_serve_daemon.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fault.h"
#include "runtime/jsonl.h"
#include "serve/daemon.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"

namespace fl::serve {
namespace {

using runtime::json_bool_field;
using runtime::json_int_field;
using runtime::json_string_field;

// ---------------------------------------------------------------------------
// Protocol

JobSpec sweep_spec() {
  JobSpec spec;
  spec.kind = JobKind::kSweep;
  spec.priority = 7;
  spec.timeout_s = 12.5;
  spec.memory_limit_mb = 512;
  spec.trace = true;
  spec.bench_path = "c.bench";
  spec.jsonl_path = "out.jsonl";
  spec.sizes = {4, 8};
  spec.replicas = 3;
  spec.seed = 99;
  spec.resume = true;
  spec.scheme = "interlock";
  spec.scheme_params = "fold=1,negate=0.5";
  return spec;
}

TEST(ServeProtocol, SubmitRoundTripsEveryField) {
  const JobSpec spec = sweep_spec();
  const Request request = parse_request(submit_line(spec));
  ASSERT_EQ(request.op, Request::Op::kSubmit);
  const JobSpec& got = request.spec;
  EXPECT_EQ(got.kind, JobKind::kSweep);
  EXPECT_EQ(got.priority, 7);
  EXPECT_DOUBLE_EQ(got.timeout_s, 12.5);
  EXPECT_EQ(got.memory_limit_mb, 512u);
  EXPECT_TRUE(got.trace);
  EXPECT_FALSE(got.detach);
  EXPECT_EQ(got.bench_path, "c.bench");
  EXPECT_EQ(got.jsonl_path, "out.jsonl");
  EXPECT_EQ(got.sizes, (std::vector<int>{4, 8}));
  EXPECT_EQ(got.replicas, 3);
  EXPECT_EQ(got.seed, 99u);
  EXPECT_TRUE(got.resume);
  EXPECT_EQ(got.scheme, "interlock");
  EXPECT_EQ(got.scheme_params, "fold=1,negate=0.5");
}

TEST(ServeProtocol, ControlOpsRoundTrip) {
  EXPECT_EQ(parse_request(status_line()).op, Request::Op::kStatus);
  const Request one = parse_request(status_line(5));
  EXPECT_EQ(one.op, Request::Op::kStatus);
  EXPECT_EQ(one.id, 5u);
  const Request cancel = parse_request(cancel_line(3));
  EXPECT_EQ(cancel.op, Request::Op::kCancel);
  EXPECT_EQ(cancel.id, 3u);
  EXPECT_EQ(parse_request(shutdown_line()).op, Request::Op::kShutdown);
}

TEST(ServeProtocol, MalformedRequestsThrow) {
  EXPECT_THROW(parse_request("not json at all"), ProtocolError);
  EXPECT_THROW(parse_request("{\"op\":\"dance\"}"), ProtocolError);
  EXPECT_THROW(parse_request("{\"op\":\"cancel\"}"), ProtocolError);  // no id
  EXPECT_THROW(parse_request("{\"op\":\"cancel\",\"id\":0}"), ProtocolError);
  EXPECT_THROW(parse_request("{\"op\":\"submit\"}"), ProtocolError);  // no kind
  EXPECT_THROW(parse_request("{\"op\":\"submit\",\"kind\":\"meta\"}"),
               ProtocolError);
}

TEST(ServeProtocol, StrictBoundsOnNumericFields) {
  const std::string base = "{\"op\":\"submit\",\"kind\":\"attack\","
                           "\"locked_path\":\"l\",\"oracle_path\":\"o\"";
  EXPECT_NO_THROW(parse_request(base + "}"));
  EXPECT_THROW(parse_request(base + ",\"priority\":1001}"), ProtocolError);
  EXPECT_THROW(parse_request(base + ",\"priority\":-1001}"), ProtocolError);
  // The removed retries field is ignored, whatever its value.
  EXPECT_NO_THROW(parse_request(base + ",\"retries\":-1}"));
  EXPECT_EQ(submit_line(parse_request(base + ",\"retries\":3}").spec),
            submit_line(parse_request(base + "}").spec));
  EXPECT_THROW(parse_request(base + ",\"timeout_s\":-2}"), ProtocolError);
  EXPECT_THROW(parse_request(base + ",\"timeout_s\":2e12}"), ProtocolError);
  EXPECT_THROW(parse_request(base + ",\"replicas\":0}"), ProtocolError);
}

TEST(ServeProtocol, ValidateSpecRequiresPathsPerKind) {
  JobSpec attack;
  attack.kind = JobKind::kAttack;
  EXPECT_THROW(validate_spec(attack), ProtocolError);
  attack.locked_path = "l.bench";
  EXPECT_THROW(validate_spec(attack), ProtocolError);
  attack.oracle_path = "o.bench";
  EXPECT_NO_THROW(validate_spec(attack));

  JobSpec sweep;
  sweep.kind = JobKind::kSweep;
  sweep.bench_path = "c.bench";
  EXPECT_THROW(validate_spec(sweep), ProtocolError);  // no jsonl_path
  sweep.jsonl_path = "out.jsonl";
  EXPECT_NO_THROW(validate_spec(sweep));
  sweep.sizes = {1};
  EXPECT_THROW(validate_spec(sweep), ProtocolError);
  sweep.sizes = {5000};
  EXPECT_THROW(validate_spec(sweep), ProtocolError);

  JobSpec lock;
  lock.kind = JobKind::kLock;
  lock.bench_path = "c.bench";
  EXPECT_THROW(validate_spec(lock), ProtocolError);  // no out_path
  lock.out_path = "locked.bench";
  EXPECT_NO_THROW(validate_spec(lock));
}

TEST(ServeProtocol, SchemeFieldsValidatedAtAdmission) {
  JobSpec lock;
  lock.kind = JobKind::kLock;
  lock.bench_path = "c.bench";
  lock.out_path = "locked.bench";
  // Any registry scheme with well-formed params is admitted...
  lock.scheme = "sfll-hd";
  lock.scheme_params = "keys=8,hd=1";
  EXPECT_NO_THROW(validate_spec(lock));
  // ...but a bad submit is rejected before it ever queues.
  lock.scheme = "nonesuch";
  EXPECT_THROW(validate_spec(lock), ProtocolError);
  lock.scheme = "sfll-hd";
  lock.scheme_params = "keys=4,hd=9";  // hd > keys
  EXPECT_THROW(validate_spec(lock), ProtocolError);
  lock.scheme_params = "kyes=8";  // unknown parameter
  EXPECT_THROW(validate_spec(lock), ProtocolError);

  JobSpec sweep;
  sweep.kind = JobKind::kSweep;
  sweep.bench_path = "c.bench";
  sweep.jsonl_path = "out.jsonl";
  sweep.scheme = "interlock";
  EXPECT_NO_THROW(validate_spec(sweep));
  sweep.attack = "nonesuch";
  EXPECT_THROW(validate_spec(sweep), ProtocolError);
  sweep.attack = "auto";
  // A scheme configured to force cycles is admitted: each cell's attack
  // follows its locked netlist (CycSAT, full-circuit encoding).
  sweep.scheme = "full-lock";
  sweep.scheme_params = "cycle=force";
  EXPECT_NO_THROW(validate_spec(sweep));

  // Attack jobs don't resolve scheme fields at admission (the scheme comes
  // from the locked file's provenance), but the attack name is checked.
  JobSpec attack;
  attack.kind = JobKind::kAttack;
  attack.locked_path = "l.bench";
  attack.oracle_path = "o.bench";
  attack.scheme = "nonesuch";  // ignored for attacks
  EXPECT_NO_THROW(validate_spec(attack));
  attack.attack = "fall";
  EXPECT_NO_THROW(validate_spec(attack));
  attack.attack = "nonesuch";
  EXPECT_THROW(validate_spec(attack), ProtocolError);
}

// ---------------------------------------------------------------------------
// Journal

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(ServeJournal, MissingFileIsEmptyReplay) {
  const auto replay = JobJournal::replay(temp_path("fl_no_journal.jsonl"));
  EXPECT_TRUE(replay.pending.empty());
  EXPECT_EQ(replay.max_id, 0u);
  EXPECT_EQ(replay.records, 0u);
}

TEST(ServeJournal, AcceptedWithoutTerminalIsPending) {
  const std::string path = temp_path("fl_journal_pending.jsonl");
  {
    JobJournal journal(path);
    JobSpec done_spec;
    done_spec.kind = JobKind::kAttack;
    done_spec.locked_path = "l.bench";
    done_spec.oracle_path = "o.bench";
    journal.record_accepted(1, done_spec);
    journal.record_terminal(1, JobState::kDone, "");
    journal.record_accepted(2, sweep_spec());
  }
  const auto replay = JobJournal::replay(path);
  EXPECT_EQ(replay.max_id, 2u);
  ASSERT_EQ(replay.pending.size(), 1u);
  EXPECT_EQ(replay.pending[0].first, 2u);
  const JobSpec& spec = replay.pending[0].second;
  EXPECT_EQ(spec.kind, JobKind::kSweep);
  EXPECT_EQ(spec.jsonl_path, "out.jsonl");
  // Replayed sweeps continue their checkpoint instead of truncating it, and
  // are detached — the submitting client is gone after a daemon restart.
  EXPECT_TRUE(spec.resume);
  EXPECT_TRUE(spec.detach);
}

TEST(ServeJournal, ReplaysJobsJournaledWithTheRemovedEncodeField) {
  // sweep_spec()'s "accepted" record exactly as a daemon that still had the
  // `encode` and `retries` spec fields wrote it. An upgraded daemon must
  // replay the job, ignoring those fields and keeping every other one.
  const std::string path = temp_path("fl_journal_encode.jsonl");
  {
    std::ofstream out(path);
    out << "{\"record\":\"serve_job\",\"event\":\"accepted\",\"id\":5,"
           "\"kind\":\"sweep\",\"priority\":7,\"timeout_s\":12.5,"
           "\"retries\":2,\"memory_limit_mb\":512,\"detach\":false,"
           "\"trace\":true,\"attack\":\"auto\",\"attack_timeout_s\":60,"
           "\"encode\":\"full\",\"scheme\":\"interlock\","
           "\"scheme_params\":\"fold=1,negate=0.5\",\"bench_path\":"
           "\"c.bench\",\"jsonl_path\":\"out.jsonl\",\"sizes\":[4,8],"
           "\"replicas\":3,\"seed\":99,\"resume\":true}\n";
  }
  const auto replay = JobJournal::replay(path);
  EXPECT_EQ(replay.max_id, 5u);
  ASSERT_EQ(replay.pending.size(), 1u);
  EXPECT_EQ(replay.pending[0].first, 5u);
  const JobSpec& spec = replay.pending[0].second;
  EXPECT_NO_THROW(validate_spec(spec));
  JobSpec expected = sweep_spec();
  expected.detach = true;  // replay detaches every pending job
  EXPECT_EQ(submit_line(spec), submit_line(expected));  // every field
}

TEST(ServeJournal, TornLastLineIsSkippedNotFatal) {
  const std::string path = temp_path("fl_journal_torn.jsonl");
  {
    JobJournal journal(path);
    journal.record_accepted(1, sweep_spec());
  }
  {
    // A record half-written when the power went: no newline, broken JSON.
    std::ofstream out(path, std::ios::app);
    out << "{\"record\":\"serve_job\",\"event\":\"ter";
  }
  const auto replay = JobJournal::replay(path);
  EXPECT_EQ(replay.max_id, 1u);
  ASSERT_EQ(replay.pending.size(), 1u);
  EXPECT_EQ(replay.pending[0].first, 1u);
}

TEST(ServeJournal, WriteFaultSurfacesAsWriteFault) {
  const std::string path = temp_path("fl_journal_enospc.jsonl");
  runtime::FaultInjector faults;
  // Every durable sync from now on fails like a full disk would.
  faults.add(runtime::FaultSpec::at_write(
      static_cast<std::size_t>(runtime::JsonlWriter::sync_sequence()),
      runtime::FaultKind::kEWrite, /*count=*/1 << 20));
  JobJournal journal(path, &faults);
  EXPECT_THROW(journal.record_accepted(1, sweep_spec()),
               runtime::WriteFault);
}

// ---------------------------------------------------------------------------
// Scheduler

// Collects every event of every job; tests poll for terminal states.
class EventLog {
 public:
  EventFn fn() {
    return [this](const JobEvent& event) {
      std::lock_guard<std::mutex> lock(mu_);
      events_.push_back(event);
      cv_.notify_all();
    };
  }

  // Blocks until the job's terminal event arrives (fails the test after 30s).
  JobEvent wait_terminal(std::uint64_t id) {
    std::unique_lock<std::mutex> lock(mu_);
    JobEvent found;
    const bool ok = cv_.wait_for(lock, std::chrono::seconds(30), [&] {
      for (const JobEvent& e : events_) {
        if (e.id == id && e.type == "terminal") {
          found = e;
          return true;
        }
      }
      return false;
    });
    EXPECT_TRUE(ok) << "no terminal event for job " << id;
    return found;
  }

  std::vector<JobEvent> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

  std::size_t count(std::uint64_t id, const std::string& type) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const JobEvent& e : events_) {
      if (e.id == id && e.type == type) ++n;
    }
    return n;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<JobEvent> events_;
};

JobSpec quick_spec(int priority = 0) {
  JobSpec spec;
  spec.kind = JobKind::kAttack;
  spec.locked_path = "l.bench";
  spec.oracle_path = "o.bench";
  spec.priority = priority;
  return spec;
}

SchedulerConfig fast_config() {
  SchedulerConfig config;
  config.workers = 1;
  config.watchdog_period_s = 0.002;
  return config;
}

TEST(ServeScheduler, RunsJobAndMergesRunnerFields) {
  Scheduler scheduler(fast_config(), [](const JobSpec&, JobContext& ctx) {
    JobResult result;
    result.fields.field("answer", 42);
    runtime::JsonObject note;
    note.field("step", 1);
    ctx.emit("trace", std::move(note));
    return result;
  });
  EventLog log;
  std::string reject;
  const std::uint64_t id = scheduler.submit(quick_spec(), log.fn(), &reject);
  ASSERT_NE(id, 0u);
  const JobEvent terminal = log.wait_terminal(id);
  EXPECT_EQ(terminal.state, JobState::kDone);
  EXPECT_EQ(json_string_field(terminal.line, "state"), "done");
  EXPECT_EQ(json_int_field(terminal.line, "answer"), 42);
  EXPECT_EQ(log.count(id, "started"), 1u);
  EXPECT_EQ(log.count(id, "trace"), 1u);
  EXPECT_EQ(log.count(id, "terminal"), 1u);
  EXPECT_EQ(scheduler.stats().done, 1u);
}

TEST(ServeScheduler, PriorityOrdersQueuedJobs) {
  std::atomic<bool> release{false};
  std::mutex order_mu;
  std::vector<std::uint64_t> order;
  Scheduler scheduler(fast_config(),
                      [&](const JobSpec& spec, JobContext& ctx) {
                        if (spec.seed == 1) {  // the blocker
                          while (!release.load()) {
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(1));
                          }
                        } else {
                          std::lock_guard<std::mutex> lock(order_mu);
                          order.push_back(ctx.id);
                        }
                        return JobResult{};
                      });
  EventLog log;
  std::string reject;
  JobSpec blocker = quick_spec();
  blocker.seed = 1;
  const auto blocker_id = scheduler.submit(blocker, log.fn(), &reject);
  ASSERT_NE(blocker_id, 0u);
  // Queued while the single worker is busy: low first, high second — the
  // claim order must follow priority, not submission order.
  const auto low = scheduler.submit(quick_spec(-5), log.fn(), &reject);
  const auto mid = scheduler.submit(quick_spec(0), log.fn(), &reject);
  const auto high = scheduler.submit(quick_spec(5), log.fn(), &reject);
  ASSERT_NE(low, 0u);
  ASSERT_NE(mid, 0u);
  ASSERT_NE(high, 0u);
  release.store(true);
  log.wait_terminal(blocker_id);
  log.wait_terminal(low);
  log.wait_terminal(mid);
  log.wait_terminal(high);
  std::lock_guard<std::mutex> lock(order_mu);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{high, mid, low}));
}

TEST(ServeScheduler, FailingJobRunsOnceAndFailsWithItsReason) {
  std::atomic<int> runs{0};
  Scheduler scheduler(fast_config(), [&](const JobSpec&, JobContext&)
                                         -> JobResult {
    runs.fetch_add(1);
    throw std::runtime_error("boom");
  });
  EventLog log;
  std::string reject;
  // A request that still carries the removed retries field runs once too.
  const JobSpec spec =
      parse_request("{\"op\":\"submit\",\"kind\":\"attack\","
                    "\"locked_path\":\"l\",\"oracle_path\":\"o\","
                    "\"retries\":2}")
          .spec;
  const auto id = scheduler.submit(spec, log.fn(), &reject);
  ASSERT_NE(id, 0u);
  const JobEvent terminal = log.wait_terminal(id);
  EXPECT_EQ(terminal.state, JobState::kFailed);
  EXPECT_EQ(json_string_field(terminal.line, "reason"), "boom");
  scheduler.wait_idle();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(log.count(id, "started"), 1u);
  EXPECT_EQ(log.count(id, "retry"), 0u);
  for (const JobEvent& event : log.events()) {  // no attempt(s) field
    EXPECT_EQ(event.line.find("attempt"), std::string::npos) << event.line;
  }
  EXPECT_EQ(scheduler.stats().failed, 1u);
}

TEST(ServeScheduler, JobFaultsDoNotPoisonTheWorker) {
  // One worker survives a throw and an OOM back to back, then runs a clean
  // job — per-job isolation, nothing leaks across jobs.
  Scheduler scheduler(fast_config(), [](const JobSpec& spec, JobContext&)
                                         -> JobResult {
    if (spec.seed == 1) throw std::runtime_error("thrown");
    if (spec.seed == 2) throw std::bad_alloc();
    return JobResult{};
  });
  EventLog log;
  std::string reject;
  JobSpec throws = quick_spec();
  throws.seed = 1;
  JobSpec ooms = quick_spec();
  ooms.seed = 2;
  const auto a = scheduler.submit(throws, log.fn(), &reject);
  const auto b = scheduler.submit(ooms, log.fn(), &reject);
  const auto c = scheduler.submit(quick_spec(), log.fn(), &reject);
  EXPECT_EQ(log.wait_terminal(a).state, JobState::kFailed);
  EXPECT_EQ(log.wait_terminal(b).state, JobState::kFailed);
  EXPECT_EQ(log.wait_terminal(c).state, JobState::kDone);
  const auto stats = scheduler.stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.done, 1u);
}

TEST(ServeScheduler, InjectedSiteFaultFailsThatJobOnly) {
  // site:serve.job:throw fires at the first job's run only (FL_FAULT's
  // site: path, driven through SchedulerConfig::faults): that job fails,
  // the next one runs clean.
  const auto faults = runtime::FaultInjector::parse("site:serve.job:throw");
  SchedulerConfig config = fast_config();
  config.faults = &faults;
  Scheduler scheduler(config,
                      [](const JobSpec&, JobContext&) { return JobResult{}; });
  EventLog log;
  std::string reject;
  const auto id = scheduler.submit(quick_spec(), log.fn(), &reject);
  ASSERT_NE(id, 0u);
  const JobEvent terminal = log.wait_terminal(id);
  EXPECT_EQ(terminal.state, JobState::kFailed);
  const auto reason = json_string_field(terminal.line, "reason");
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("fault-injected"), std::string::npos) << *reason;
  const auto next = scheduler.submit(quick_spec(), log.fn(), &reject);
  ASSERT_NE(next, 0u);
  EXPECT_EQ(log.wait_terminal(next).state, JobState::kDone);
}

TEST(ServeScheduler, BoundedQueueRejectsOverload) {
  std::atomic<bool> release{false};
  SchedulerConfig config = fast_config();
  config.max_queue = 2;
  Scheduler scheduler(config, [&](const JobSpec&, JobContext&) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return JobResult{};
  });
  EventLog log;
  std::string reject;
  const auto running = scheduler.submit(quick_spec(), log.fn(), &reject);
  ASSERT_NE(running, 0u);
  // Wait for the worker to claim it so the queue is empty again.
  while (scheduler.stats().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto q1 = scheduler.submit(quick_spec(), log.fn(), &reject);
  const auto q2 = scheduler.submit(quick_spec(), log.fn(), &reject);
  ASSERT_NE(q1, 0u);
  ASSERT_NE(q2, 0u);
  const auto overflow = scheduler.submit(quick_spec(), log.fn(), &reject);
  EXPECT_EQ(overflow, 0u);
  EXPECT_EQ(reject, "overloaded");
  release.store(true);
  log.wait_terminal(running);
  log.wait_terminal(q1);
  log.wait_terminal(q2);
}

TEST(ServeScheduler, CancelQueuedJobIsImmediatelyTerminal) {
  std::atomic<bool> release{false};
  Scheduler scheduler(fast_config(), [&](const JobSpec& spec, JobContext&) {
    if (spec.seed == 1) {
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return JobResult{};
  });
  EventLog log;
  std::string reject;
  JobSpec blocker = quick_spec();
  blocker.seed = 1;
  const auto blocker_id = scheduler.submit(blocker, log.fn(), &reject);
  const auto queued = scheduler.submit(quick_spec(), log.fn(), &reject);
  ASSERT_NE(queued, 0u);
  EXPECT_TRUE(scheduler.cancel(queued, "changed my mind"));
  const JobEvent terminal = log.wait_terminal(queued);
  EXPECT_EQ(terminal.state, JobState::kCancelled);
  EXPECT_EQ(json_string_field(terminal.line, "reason"), "changed my mind");
  EXPECT_FALSE(scheduler.cancel(queued));  // already terminal
  EXPECT_FALSE(scheduler.cancel(9999));    // unknown id
  EXPECT_EQ(log.count(queued, "started"), 0u);  // never ran
  release.store(true);
  log.wait_terminal(blocker_id);
}

TEST(ServeScheduler, CancelRunningJobViaToken) {
  Scheduler scheduler(fast_config(), [](const JobSpec&, JobContext& ctx) {
    while (!ctx.cancel->cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    JobResult result;
    result.interrupted = true;  // observed the token, checkpoint intact
    return result;
  });
  EventLog log;
  std::string reject;
  const auto id = scheduler.submit(quick_spec(), log.fn(), &reject);
  ASSERT_NE(id, 0u);
  while (scheduler.stats().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(scheduler.cancel(id));
  const JobEvent terminal = log.wait_terminal(id);
  // An explicit user cancel is "cancelled" even when the runner cooperated.
  EXPECT_EQ(terminal.state, JobState::kCancelled);
  EXPECT_EQ(scheduler.stats().cancelled, 1u);
}

TEST(ServeScheduler, WallBudgetTimesOutAsFailed) {
  SchedulerConfig config = fast_config();
  Scheduler scheduler(config, [](const JobSpec&, JobContext& ctx) {
    while (!ctx.cancel->cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    JobResult result;
    result.interrupted = true;
    return result;
  });
  EventLog log;
  std::string reject;
  JobSpec spec = quick_spec();
  spec.timeout_s = 0.05;
  const auto id = scheduler.submit(spec, log.fn(), &reject);
  ASSERT_NE(id, 0u);
  const JobEvent terminal = log.wait_terminal(id);
  EXPECT_EQ(terminal.state, JobState::kFailed);
  const auto reason = json_string_field(terminal.line, "reason");
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("wall budget"), std::string::npos);
}

TEST(ServeScheduler, WatchdogEscalatesStalledCancellation) {
  // The runner ignores its token for a while; the watchdog must emit the
  // stalled-failed terminal after stall_grace_s without waiting for the
  // runaway to return, and the eventual return must not emit a second one.
  std::atomic<bool> runner_returned{false};
  SchedulerConfig config = fast_config();
  config.stall_grace_s = 0.05;
  Scheduler scheduler(config, [&](const JobSpec&, JobContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    runner_returned.store(true);
    return JobResult{};  // discarded: the job is already terminal
  });
  EventLog log;
  std::string reject;
  const auto id = scheduler.submit(quick_spec(), log.fn(), &reject);
  ASSERT_NE(id, 0u);
  while (scheduler.stats().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(scheduler.cancel(id));
  const JobEvent terminal = log.wait_terminal(id);
  EXPECT_EQ(terminal.state, JobState::kFailed);
  const auto reason = json_string_field(terminal.line, "reason");
  ASSERT_TRUE(reason.has_value());
  EXPECT_NE(reason->find("stalled"), std::string::npos);
  // Terminal arrived while the runner was still stuck.
  EXPECT_FALSE(runner_returned.load());
  // The runaway eventually returns; its discarded result must not emit a
  // second terminal.
  while (!runner_returned.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  scheduler.wait_idle();
  EXPECT_EQ(log.count(id, "terminal"), 1u);  // exactly once
}

TEST(ServeScheduler, DrainInterruptsQueuedAndRunningJobs) {
  Scheduler* raw = nullptr;
  std::atomic<bool> release{false};
  Scheduler scheduler(fast_config(), [&](const JobSpec& spec, JobContext& ctx) {
    if (spec.seed == 1) {
      while (!ctx.cancel->cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      JobResult result;
      result.interrupted = true;
      return result;
    }
    (void)release;
    return JobResult{};
  });
  raw = &scheduler;
  (void)raw;
  EventLog log;
  std::string reject;
  JobSpec running = quick_spec();
  running.seed = 1;
  const auto running_id = scheduler.submit(running, log.fn(), &reject);
  ASSERT_NE(running_id, 0u);
  while (scheduler.stats().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto queued_id = scheduler.submit(quick_spec(), log.fn(), &reject);
  ASSERT_NE(queued_id, 0u);
  scheduler.drain();
  EXPECT_EQ(log.wait_terminal(running_id).state, JobState::kInterrupted);
  EXPECT_EQ(log.wait_terminal(queued_id).state, JobState::kInterrupted);
  // Post-drain admissions bounce with the "draining" reason.
  const auto late = scheduler.submit(quick_spec(), log.fn(), &reject);
  EXPECT_EQ(late, 0u);
  EXPECT_EQ(reject, "draining");
  EXPECT_EQ(scheduler.stats().interrupted, 2u);
}

// ---------------------------------------------------------------------------
// parse_serve_args

ServeArgs parse_args(std::vector<std::string> args) {
  std::vector<char*> argv;
  std::string argv0 = "fulllock";
  std::string argv1 = "serve";
  argv.push_back(argv0.data());
  argv.push_back(argv1.data());
  for (std::string& arg : args) argv.push_back(arg.data());
  return parse_serve_args(static_cast<int>(argv.size()), argv.data(), 2);
}

TEST(ServeArgsParse, ParsesEveryKnob) {
  // Both spellings of a value flag: "--flag VALUE" and "--flag=VALUE".
  for (const std::vector<std::string>& flags :
       {std::vector<std::string>{"/tmp/fl.sock", "--state", "/tmp/fl.journal",
                                 "--workers", "4", "--max-queue", "32",
                                 "--job-timeout", "90", "--stall-grace", "5"},
        std::vector<std::string>{"/tmp/fl.sock", "--state=/tmp/fl.journal",
                                 "--workers=4", "--max-queue=32",
                                 "--job-timeout=90", "--stall-grace=5"}}) {
    const ServeArgs args = parse_args(flags);
    EXPECT_EQ(args.socket_path, "/tmp/fl.sock");
    EXPECT_EQ(args.journal_path, "/tmp/fl.journal");
    EXPECT_EQ(args.workers, 4);
    EXPECT_EQ(args.max_queue, 32u);
    EXPECT_DOUBLE_EQ(args.job_timeout_s, 90.0);
    EXPECT_DOUBLE_EQ(args.stall_grace_s, 5.0);
  }
}

TEST(ServeArgsParse, RejectsJunkStrictly) {
  EXPECT_THROW(parse_args({}), std::invalid_argument);  // no socket path
  EXPECT_THROW(parse_args({"/tmp/fl.sock", "--workers", "0"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"/tmp/fl.sock", "--workers", "abc"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"/tmp/fl.sock", "--max-queue", "0"}),
               std::invalid_argument);
  // Jobs run once: the removed retry knobs are unknown arguments.
  EXPECT_THROW(parse_args({"/tmp/fl.sock", "--retries", "1"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"/tmp/fl.sock", "--backoff", "0.5"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"/tmp/fl.sock", "--job-timeout", "-3"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"/tmp/fl.sock", "--job-timeout", "nan"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"/tmp/fl.sock", "--stall-grace", "0"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"/tmp/fl.sock", "--bogus"}),
               std::invalid_argument);
  EXPECT_THROW(parse_args({"/tmp/fl.sock", "--workers"}),  // missing value
               std::invalid_argument);
}

}  // namespace
}  // namespace fl::serve

// End-to-end tests of the serve daemon over a real AF_UNIX socket: protocol
// round trips through ClientConn/ServeClient, graceful drain with a
// concurrent client, overload backpressure, injected connection drops,
// journal write faults, and the headline robustness property — kill -9 of
// the daemon mid-sweep, restart, and resume from the durable checkpoint
// with no lost or duplicated records.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "netlist/bench_io.h"
#include "netlist/profiles.h"
#include "runtime/fault.h"
#include "runtime/jsonl.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/session.h"

namespace fl::serve {
namespace {

using runtime::json_int_field;
using runtime::json_string_field;

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Runs a daemon plus its serve_forever loop on a background thread, without
// touching the process-global signal handler. Shutdown is driven by
// request_shutdown() (or a client shutdown op), exactly the drain path a
// SIGTERM takes after the handler sets its token.
struct DaemonHarness {
  Daemon daemon;
  std::thread thread;
  int rc = -1;

  DaemonHarness(ServeArgs args, JobRunner runner,
                const runtime::FaultInjector* faults = nullptr)
      : daemon(std::move(args), std::move(runner), faults) {
    daemon.start();  // listener is up before any test client connects
    thread = std::thread([this] { rc = daemon.serve_forever(false); });
  }

  int shutdown_and_join() {
    daemon.request_shutdown();
    if (thread.joinable()) thread.join();
    return rc;
  }

  ~DaemonHarness() { shutdown_and_join(); }
};

// A bare-bones protocol client for tests that need mid-stream control the
// ServeClient convenience wrappers hide (e.g. killing the daemon after the
// first cell event).
class RawClient {
 public:
  RawClient(const std::string& path, int recv_timeout_s = 30)
      : fd_(connect_unix(path)) {
    timeval tv{};
    tv.tv_sec = recv_timeout_s;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  bool send(const std::string& line) {
    std::string buf = line;
    buf.push_back('\n');
    std::size_t sent = 0;
    while (sent < buf.size()) {
      const ssize_t n =
          ::send(fd_, buf.data() + sent, buf.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // One line, or nullopt on EOF / recv timeout.
  std::optional<std::string> read_line() {
    while (true) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  // Reads until a line whose "event" matches `type`; nullopt on EOF.
  std::optional<std::string> wait_event(const std::string& type) {
    while (auto line = read_line()) {
      if (json_string_field(*line, "event") == type) return line;
    }
    return std::nullopt;
  }

 private:
  int fd_;
  std::string buf_;
};

JobSpec attack_spec() {
  JobSpec spec;
  spec.kind = JobKind::kAttack;
  spec.locked_path = "l.bench";  // synthetic runners never open these
  spec.oracle_path = "o.bench";
  return spec;
}

JobSpec sweep_spec(const std::string& jsonl) {
  JobSpec spec;
  spec.kind = JobKind::kSweep;
  spec.bench_path = "c.bench";
  spec.jsonl_path = jsonl;
  return spec;
}

JobRunner quick_runner() {
  return [](const JobSpec&, JobContext&) {
    JobResult result;
    result.fields.field("ok", true);
    return result;
  };
}

// Polls its token forever; reports a clean resumable interruption when the
// daemon asks it to stop.
JobRunner polling_runner() {
  return [](const JobSpec&, JobContext& ctx) {
    while (!ctx.cancel->cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    JobResult result;
    result.interrupted = true;
    return result;
  };
}

TEST(ServeDaemon, SubmitStatusCancelShutdownOverSocket) {
  ServeArgs args;
  args.socket_path = temp_path("fl_sd1.sock");
  DaemonHarness harness(args, quick_runner());

  std::ostringstream out;
  ServeClient submit(args.socket_path);
  EXPECT_EQ(submit.submit_and_stream(attack_spec(), out), ClientExit::kDone);
  const std::string streamed = out.str();
  // No "accepted" assertion: a fast job's terminal may legitimately beat the
  // accepted line onto the wire (see the ordering note in protocol.h), and
  // the client stops reading at the terminal.
  EXPECT_NE(streamed.find("\"event\":\"terminal\""), std::string::npos);
  EXPECT_NE(streamed.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(streamed.find("\"ok\":true"), std::string::npos);  // runner field

  std::ostringstream status_out;
  ServeClient status(args.socket_path);
  EXPECT_EQ(status.status(std::nullopt, status_out), ClientExit::kDone);
  EXPECT_NE(status_out.str().find("\"event\":\"status\""), std::string::npos);
  EXPECT_NE(status_out.str().find("\"done\":1"), std::string::npos);

  std::ostringstream cancel_out;
  ServeClient cancel(args.socket_path);
  EXPECT_EQ(cancel.cancel(999, cancel_out), ClientExit::kFailed);  // unknown

  std::ostringstream shutdown_out;
  ServeClient shutdown(args.socket_path);
  EXPECT_EQ(shutdown.shutdown(shutdown_out), ClientExit::kDone);
  EXPECT_EQ(harness.shutdown_and_join(), 0);
}

TEST(ServeDaemon, DrainInterruptsJobAndJournalKeepsItPending) {
  ServeArgs args;
  args.socket_path = temp_path("fl_sd2.sock");
  args.journal_path = temp_path("fl_sd2.journal");
  int rc = -1;
  {
    DaemonHarness harness(args, polling_runner());
    RawClient client(args.socket_path);
    ASSERT_TRUE(client.send(submit_line(sweep_spec("ckpt.jsonl"))));
    ASSERT_TRUE(client.wait_event("started").has_value());

    // SIGTERM path: drain while the job runs and the client streams.
    harness.daemon.request_shutdown();
    const auto terminal = client.wait_event("terminal");
    ASSERT_TRUE(terminal.has_value());
    EXPECT_EQ(json_string_field(*terminal, "state"), "interrupted");
    rc = harness.shutdown_and_join();
  }
  EXPECT_EQ(rc, 0);

  // The journal deliberately has no terminal record: the job is pending and
  // the next daemon must resume it — as a detached job (its client is gone)
  // continuing its checkpoint (resume=true).
  const auto replay = JobJournal::replay(args.journal_path);
  ASSERT_EQ(replay.pending.size(), 1u);
  EXPECT_EQ(replay.pending[0].first, 1u);
  EXPECT_TRUE(replay.pending[0].second.resume);
  EXPECT_TRUE(replay.pending[0].second.detach);
  std::remove(args.journal_path.c_str());
}

TEST(ServeDaemon, RejectsSubmissionsOnceDraining) {
  ServeArgs args;
  args.socket_path = temp_path("fl_sd3.sock");
  DaemonHarness harness(args, polling_runner());
  RawClient running(args.socket_path);
  ASSERT_TRUE(running.send(submit_line(attack_spec())));
  ASSERT_TRUE(running.wait_event("started").has_value());

  harness.daemon.request_shutdown();
  // The daemon stops admitting the moment shutdown is requested; the already
  // connected client's next submit bounces instead of hanging the drain.
  // (The connection may also be torn down by the drain first — both are
  // correct; what must not happen is a second job getting accepted.)
  if (running.send(submit_line(attack_spec()))) {
    const auto rejected = running.wait_event("rejected");
    if (rejected.has_value()) {
      EXPECT_EQ(json_string_field(*rejected, "reason"), "draining");
    }
  }
  EXPECT_EQ(harness.shutdown_and_join(), 0);
  EXPECT_EQ(harness.daemon.scheduler().stats().done, 0u);
}

TEST(ServeDaemon, OverloadedQueueRejectsWithBackpressure) {
  std::atomic<bool> release{false};
  ServeArgs args;
  args.socket_path = temp_path("fl_sd4.sock");
  args.workers = 1;
  args.max_queue = 1;
  DaemonHarness harness(args, [&](const JobSpec&, JobContext&) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return JobResult{};
  });

  // Fire-and-forget submissions: one claims the worker, one fills the
  // bounded queue, the third must bounce with "overloaded".
  JobSpec detached = attack_spec();
  detached.detach = true;
  std::ostringstream out;
  ServeClient first(args.socket_path);
  ASSERT_EQ(first.submit_and_stream(detached, out), ClientExit::kDone);
  while (harness.daemon.scheduler().stats().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ServeClient second(args.socket_path);
  ASSERT_EQ(second.submit_and_stream(detached, out), ClientExit::kDone);
  while (harness.daemon.scheduler().stats().queued == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::ostringstream rejected_out;
  ServeClient third(args.socket_path);
  EXPECT_EQ(third.submit_and_stream(detached, rejected_out),
            ClientExit::kRejected);
  EXPECT_NE(rejected_out.str().find("overloaded"), std::string::npos);

  release.store(true);
  harness.daemon.scheduler().wait_idle();
  EXPECT_EQ(harness.shutdown_and_join(), 0);
}

TEST(ServeDaemon, InjectedStreamDropIsolatesThatClient) {
  // The daemon's first client-stream write drops the connection mid-stream.
  // That client loses its stream; the daemon and every later client keep
  // working — the drop is contained to one connection.
  const auto faults = runtime::FaultInjector::parse("site:serve.stream:drop");
  ServeArgs args;
  args.socket_path = temp_path("fl_sd5.sock");
  DaemonHarness harness(args, quick_runner(), &faults);

  std::ostringstream dropped_out;
  ServeClient dropped(args.socket_path);
  EXPECT_EQ(dropped.submit_and_stream(attack_spec(), dropped_out),
            ClientExit::kConnectionLost);

  std::ostringstream ok_out;
  ServeClient ok(args.socket_path);
  EXPECT_EQ(ok.submit_and_stream(attack_spec(), ok_out), ClientExit::kDone);
  EXPECT_EQ(harness.shutdown_and_join(), 0);
}

TEST(ServeDaemon, JournalWriteFaultRejectsInsteadOfLying) {
  // Every journal sync fails like a full disk. A job whose "accepted"
  // record cannot be made durable must be rejected — acknowledging it would
  // promise crash recovery the daemon cannot deliver.
  runtime::FaultInjector faults;
  faults.add(runtime::FaultSpec::at_write(
      static_cast<std::size_t>(runtime::JsonlWriter::sync_sequence()),
      runtime::FaultKind::kEWrite, /*count=*/1 << 20));
  ServeArgs args;
  args.socket_path = temp_path("fl_sd6.sock");
  args.journal_path = temp_path("fl_sd6.journal");
  DaemonHarness harness(args, quick_runner(), &faults);

  std::ostringstream out;
  ServeClient client(args.socket_path);
  EXPECT_EQ(client.submit_and_stream(attack_spec(), out),
            ClientExit::kRejected);
  EXPECT_NE(out.str().find("journal write failed"), std::string::npos);

  // The daemon itself is fine: status still answers.
  std::ostringstream status_out;
  ServeClient status(args.socket_path);
  EXPECT_EQ(status.status(std::nullopt, status_out), ClientExit::kDone);
  EXPECT_EQ(harness.shutdown_and_join(), 0);
  std::remove(args.journal_path.c_str());
}

TEST(ServeDaemon, KilledDaemonMidSweepRestartsAndResumes) {
#if !defined(__unix__) && !defined(__APPLE__)
  GTEST_SKIP() << "fork-based crash test requires a unix target";
#else
  const std::string sock = temp_path("fl_sd7.sock");
  const std::string journal = temp_path("fl_sd7.journal");
  const std::string ckpt = temp_path("fl_sd7_ckpt.jsonl");
  const std::string bench = temp_path("fl_sd7_c432.bench");
  netlist::write_bench_file(netlist::make_circuit("c432", 7), bench);

  ServeArgs args;
  args.socket_path = sock;
  args.journal_path = journal;

  // The victim daemon runs the real lock/attack/sweep runner in a child
  // process, so kill -9 takes out exactly what a kernel OOM-kill would.
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    Daemon daemon(args);
    std::_Exit(daemon.serve_forever(/*install_signals=*/false));
  }

  JobSpec spec;
  spec.kind = JobKind::kSweep;
  spec.bench_path = bench;
  spec.jsonl_path = ckpt;
  spec.sizes = {4};
  spec.replicas = 3;  // 3 cells: enough runway to die mid-sweep, cheap ones
  spec.seed = 17;
  const std::size_t cells = 3;

  // Wait for the child's listener, then submit and stream until the first
  // committed cell — the moment the checkpoint provably has durable work.
  std::optional<RawClient> client;
  for (int i = 0; i < 300 && !client.has_value(); ++i) {
    try {
      client.emplace(sock, /*recv_timeout_s=*/240);
    } catch (const std::exception&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }
  ASSERT_TRUE(client.has_value()) << "daemon child never started listening";
  ASSERT_TRUE(client->send(submit_line(spec)));
  ASSERT_TRUE(client->wait_event("cell").has_value());

  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  EXPECT_FALSE(client->wait_event("terminal").has_value());  // stream died

  // Durable state after the kill: a checkpoint with at least the header and
  // one cell, and a journal whose accepted record has no terminal — the job
  // is pending, to be resumed as a detached sweep.
  const std::string partial = slurp(ckpt);
  const std::vector<std::string> partial_lines = lines_of(partial);
  ASSERT_GE(partial_lines.size(), 2u);
  EXPECT_EQ(json_string_field(partial_lines[0], "record"), "run_header");
  {
    const auto replay = JobJournal::replay(journal);
    ASSERT_EQ(replay.pending.size(), 1u);
    EXPECT_EQ(replay.pending[0].first, 1u);
    EXPECT_TRUE(replay.pending[0].second.resume);
  }

  // Restart: the new daemon replays the journal and finishes the sweep from
  // the checkpoint. No client needed — the job is detached.
  {
    Daemon daemon(args);
    daemon.start();
    daemon.scheduler().wait_idle();
  }

  // The crash-time bytes are untouched (resume appends, never rewrites),
  // every cell appears exactly once in order, and the journal closed the
  // job out as done.
  const std::string final_text = slurp(ckpt);
  ASSERT_GE(final_text.size(), partial.size());
  EXPECT_EQ(final_text.compare(0, partial.size(), partial), 0);
  const std::vector<std::string> final_lines = lines_of(final_text);
  ASSERT_EQ(final_lines.size(), cells + 1);
  for (std::size_t i = 1; i < final_lines.size(); ++i) {
    EXPECT_EQ(json_int_field(final_lines[i], "cell"),
              static_cast<long long>(i - 1));
    EXPECT_NE(json_string_field(final_lines[i], "status"), "failed");
  }
  bool closed_done = false;
  for (const std::string& line : lines_of(slurp(journal))) {
    if (json_string_field(line, "event") == "terminal" &&
        json_int_field(line, "id") == 1) {
      EXPECT_EQ(json_string_field(line, "state"), "done");
      closed_done = true;
    }
  }
  EXPECT_TRUE(closed_done);

  std::remove(journal.c_str());
  std::remove(ckpt.c_str());
  std::remove(bench.c_str());
#endif
}

TEST(ServeDaemon, ReplayedSweepWithAFailureRecordEndsFailed) {
  // What a drain leaves when it cuts a two-cell sweep job short after cell
  // 0 failed: the job's accepted record with no terminal in the journal,
  // and a checkpoint holding the header and cell 0's failure record. The
  // restarted daemon replays the job with resume: true; it runs cell 1 and
  // must end failed, since cell 0's failure stands.
  const std::string journal = temp_path("fl_sd8.journal");
  const std::string ckpt = temp_path("fl_sd8_ckpt.jsonl");
  const std::string bench = temp_path("fl_sd8_c432.bench");
  netlist::write_bench_file(netlist::make_circuit("c432", 1), bench);
  JobSpec spec;
  spec.kind = JobKind::kSweep;
  spec.bench_path = bench;
  spec.jsonl_path = ckpt;
  spec.scheme = "rll";
  spec.scheme_params = "keys=8";
  spec.sizes = {4};
  spec.replicas = 2;
  spec.attack = "sat";
  validate_spec(spec);
  JobJournal(journal).record_accepted(1, spec);
  std::ofstream(ckpt) << runtime::run_header_line("serve_sweep", 2, spec.seed)
                      << "\n{\"cell\":0,\"bench\":\"serve_sweep\","
                         "\"status\":\"failed\",\"reason\":\"boom\"}\n";

  ServeArgs args;
  args.socket_path = temp_path("fl_sd8.sock");
  args.journal_path = journal;
  {
    Daemon daemon(args);
    daemon.start();
    daemon.scheduler().wait_idle();
  }

  const std::vector<std::string> cells = lines_of(slurp(ckpt));
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(json_string_field(cells[1], "status"), "failed");
  EXPECT_EQ(json_int_field(cells[2], "cell"), 1);
  EXPECT_EQ(json_string_field(cells[2], "status"), "success");
  std::size_t terminals = 0;
  for (const std::string& line : lines_of(slurp(journal))) {
    if (json_string_field(line, "event") != "terminal") continue;
    ++terminals;
    EXPECT_EQ(json_int_field(line, "id"), 1);
    EXPECT_EQ(json_string_field(line, "state"), "failed") << line;
    EXPECT_EQ(json_int_field(line, "attempts"), std::nullopt) << line;
  }
  EXPECT_EQ(terminals, 1u);

  std::remove(journal.c_str());
  std::remove(ckpt.c_str());
  std::remove(bench.c_str());
}

}  // namespace
}  // namespace fl::serve

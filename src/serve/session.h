// Socket plumbing of the serve daemon: an AF_UNIX listener plus per-client
// connection objects that serialize line writes and survive every way a
// peer can vanish.
//
// Failure containment rules:
//   - send_line never throws and never raises SIGPIPE (MSG_NOSIGNAL): a
//     client that disappeared mid-stream closes that one connection, the
//     daemon and its jobs keep running (jobs owned by the client are
//     cancelled by the daemon's disconnect policy unless detached).
//   - the "serve.stream" fault site fires inside send_line, so the
//     dropped-connection path is deterministically testable
//     (FL_FAULT="site:serve.stream:drop").
//   - read_lines is plain blocking I/O on the connection's own reader
//     thread; EOF/ECONNRESET end the loop instead of raising.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "runtime/fault.h"

namespace fl::serve {

// One accepted client connection. Shared between its reader thread and any
// scheduler worker streaming job events to it. The descriptor is released
// only by the destructor, once the last shared_ptr is gone, so no thread
// can recv or send on a descriptor number that a later accept reused.
class ClientConn {
 public:
  ClientConn(int fd, std::uint64_t conn_id,
             const runtime::FaultInjector* faults);
  ~ClientConn();
  ClientConn(const ClientConn&) = delete;
  ClientConn& operator=(const ClientConn&) = delete;

  std::uint64_t id() const { return conn_id_; }
  bool closed() const { return closed_.load(std::memory_order_relaxed); }

  // Writes line + '\n' atomically with respect to other senders. Returns
  // false (after closing the socket) when the peer is gone — EPIPE,
  // ECONNRESET, or an injected "serve.stream" drop. Never throws, never
  // SIGPIPEs.
  bool send_line(const std::string& line);

  // Blocking read loop: invokes on_line for every complete newline-
  // terminated line until EOF/error or close(). Run on the connection's
  // reader thread.
  void read_lines(const std::function<void(const std::string&)>& on_line);

  // Marks the connection closed and shuts the socket down, which unblocks
  // read_lines and makes later sends fail. The fd stays open until the
  // destructor.
  void close();

 private:
  const int fd_;
  const std::uint64_t conn_id_;
  const runtime::FaultInjector* faults_;  // never null
  std::mutex write_mu_;
  std::atomic<bool> closed_{false};
};

// Bound + listening AF_UNIX stream socket. Removes a stale socket file on
// bind and unlinks it on destruction.
class UnixListener {
 public:
  // Throws std::runtime_error (with errno text) when bind/listen fails —
  // e.g. another daemon already serves this path.
  explicit UnixListener(const std::string& path);
  ~UnixListener();
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  const std::string& path() const { return path_; }

  // Waits up to timeout_ms for a connection; returns the accepted fd, or -1
  // on timeout / EINTR / closed listener (poll again or stop).
  int accept_with_timeout(int timeout_ms);

  // Stops accepting (drain): marks the listener closed and shuts the socket
  // down, so new connects are refused and a waiting accept_with_timeout
  // returns -1 within its timeout. Callable from any thread; the fd is
  // released by the destructor, after the accepting thread is joined.
  void close();

 private:
  std::string path_;
  int fd_ = -1;
  std::atomic<bool> closed_{false};
};

// Client-side connect; throws std::runtime_error when nothing listens.
int connect_unix(const std::string& path);

}  // namespace fl::serve

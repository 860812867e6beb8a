#include "serve/session.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace fl::serve {

namespace {

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long (" +
                             std::to_string(path.size()) + " bytes, max " +
                             std::to_string(sizeof(addr.sun_path) - 1) +
                             "): " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

ClientConn::ClientConn(int fd, std::uint64_t conn_id,
                       const runtime::FaultInjector* faults)
    : fd_(fd),
      conn_id_(conn_id),
      faults_(faults != nullptr ? faults : &runtime::FaultInjector::global()) {}

ClientConn::~ClientConn() {
  close();
  ::close(fd_);
}

bool ClientConn::send_line(const std::string& line) {
  if (closed()) return false;
  std::lock_guard<std::mutex> lock(write_mu_);
  if (closed()) return false;
  try {
    faults_->inject_site("serve.stream");
  } catch (const std::exception&) {
    // Injected mid-stream drop (or any other injected stream fault): treat
    // it exactly like a vanished peer.
    close();
    return false;
  }
  std::string buf = line;
  buf.push_back('\n');
  std::size_t sent = 0;
  while (sent < buf.size()) {
    const ssize_t n =
        ::send(fd_, buf.data() + sent, buf.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      close();  // EPIPE / ECONNRESET / anything else: the peer is gone
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void ClientConn::read_lines(
    const std::function<void(const std::string&)>& on_line) {
  std::string buf;
  char chunk[4096];
  while (!closed()) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF or error: the client hung up
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    while (true) {
      const std::size_t nl = buf.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buf.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) on_line(line);
      if (closed()) break;
    }
    buf.erase(0, start);
  }
}

void ClientConn::close() {
  if (closed_.exchange(true, std::memory_order_relaxed)) return;
  ::shutdown(fd_, SHUT_RDWR);
}

UnixListener::UnixListener(const std::string& path) : path_(path) {
  const sockaddr_un addr = make_addr(path);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error(std::string("socket() failed: ") +
                             std::strerror(errno));
  }
  ::unlink(path.c_str());  // a stale socket file from a crashed daemon
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("bind(" + path +
                             ") failed: " + std::strerror(err));
  }
  if (::listen(fd_, 64) < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    ::unlink(path.c_str());
    throw std::runtime_error("listen(" + path +
                             ") failed: " + std::strerror(err));
  }
}

UnixListener::~UnixListener() {
  ::close(fd_);
  ::unlink(path_.c_str());
}

int UnixListener::accept_with_timeout(int timeout_ms) {
  if (closed_.load(std::memory_order_relaxed)) return -1;
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return -1;  // timeout or EINTR (signal): caller re-polls
  const int client = ::accept(fd_, nullptr, nullptr);
  return client;  // -1 on a racing close(): caller re-polls and stops
}

void UnixListener::close() {
  if (closed_.exchange(true, std::memory_order_relaxed)) return;
  ::shutdown(fd_, SHUT_RDWR);
}

int connect_unix(const std::string& path) {
  const sockaddr_un addr = make_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket() failed: ") +
                             std::strerror(errno));
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("connect(" + path + ") failed: " +
                             std::strerror(err) +
                             " (is the daemon running?)");
  }
  return fd;
}

}  // namespace fl::serve

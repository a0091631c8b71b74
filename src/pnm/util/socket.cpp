#include "pnm/util/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <unistd.h>

namespace pnm {

namespace {

bool set_nodelay(int fd) {
  int one = 1;
  return setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

}  // namespace

int tcp_listen(std::uint16_t port, bool loopback_only, int backlog, bool reuse_port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (reuse_port && setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    const int saved = errno;
    close(fd);
    errno = saved;
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(fd, backlog) != 0 || !set_nonblocking(fd)) {
    const int saved = errno;
    close(fd);
    errno = saved;
    return -1;
  }
  return fd;
}

std::uint16_t tcp_local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

int tcp_connect(const std::string& host, std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string ip = (host == "localhost" || host.empty()) ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    errno = EINVAL;
    return -1;
  }
  int rc = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINTR) {
    // POSIX: an interrupted connect keeps completing asynchronously.
    // Retrying connect(2) here would return EALREADY (attempt still in
    // flight) or EISCONN (it finished) — both spurious "failures".  The
    // correct continuation is to wait for writability and read the
    // handshake's verdict from SO_ERROR.
    pollfd pfd{fd, POLLOUT, 0};
    int pr;
    do {
      pr = poll(&pfd, 1, -1);
    } while (pr < 0 && errno == EINTR);
    int err = 0;
    socklen_t len = sizeof(err);
    if (pr > 0 && getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 && err == 0) {
      rc = 0;
    } else {
      errno = err != 0 ? err : ECONNREFUSED;
      rc = -1;
    }
  }
  if (rc != 0) {
    const int saved = errno;
    close(fd);
    errno = saved;
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

int tcp_accept(int listen_fd) {
  int fd;
  do {
    fd = accept(listen_fd, nullptr, nullptr);
    // ECONNABORTED: the peer connected and reset before we got here
    // (slowloris clients being killed do this constantly).  That dead
    // connection is not an accept failure — move on to the next one.
  } while (fd < 0 && (errno == EINTR || errno == ECONNABORTED));
  if (fd < 0) return -1;
  if (!set_nonblocking(fd)) {
    close(fd);
    return -1;
  }
  set_nodelay(fd);
  return fd;
}

bool set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool send_all(int fd, const void* data, std::size_t n, int stall_ms) {
  const char* p = static_cast<const char*>(data);
  std::size_t sent = 0;
  if (stall_ms < 1) stall_ms = 1;
  // A peer that stops reading would otherwise park the sender forever on
  // a full socket buffer; once `stall_ms` passes without the kernel
  // accepting a single byte, give up and let the caller treat the
  // connection as dead.  The clock restarts on every byte of progress,
  // so slow-but-live peers are not cut off.  Short poll slices keep the
  // cap accurate: one long poll could oversleep the budget, and an
  // EINTR-interrupted poll must not count as stalled time it never
  // actually waited.
  const int slice_ms = stall_ms < 200 ? stall_ms : 200;
  auto last_progress = std::chrono::steady_clock::now();
  while (sent < n) {
    const ssize_t rc = send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<std::size_t>(rc);
      last_progress = std::chrono::steady_clock::now();
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      const int pr = poll(&pfd, 1, slice_ms);
      if (pr < 0 && errno != EINTR) return false;
      const auto stalled = std::chrono::duration_cast<std::chrono::milliseconds>(
                               std::chrono::steady_clock::now() - last_progress)
                               .count();
      if (stalled >= stall_ms) return false;
      continue;
    }
    return false;
  }
  return true;
}

long send_some(int fd, const void* data, std::size_t n) {
  ssize_t rc;
  do {
    rc = send(fd, data, n, MSG_NOSIGNAL | MSG_DONTWAIT);
  } while (rc < 0 && errno == EINTR);
  return static_cast<long>(rc);
}

long recv_some(int fd, void* buf, std::size_t n) {
  ssize_t rc;
  do {
    rc = recv(fd, buf, n, 0);
  } while (rc < 0 && errno == EINTR);
  return static_cast<long>(rc);
}

bool recv_exact(int fd, void* buf, std::size_t n, int timeout_ms) {
  char* p = static_cast<char*>(buf);
  std::size_t got = 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms > 0 ? timeout_ms : 0);
  while (got < n) {
    if (timeout_ms > 0) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      if (left <= 0) return false;
      pollfd pfd{fd, POLLIN, 0};
      const int pr = poll(&pfd, 1, static_cast<int>(left));
      if (pr < 0 && errno != EINTR) return false;
      if (pr <= 0) continue;
    }
    const long rc = recv_some(fd, p + got, n - got);
    if (rc > 0) {
      got += static_cast<std::size_t>(rc);
    } else if (rc == 0) {
      return false;  // peer closed mid-message
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return false;
    }
  }
  return true;
}

Epoll::Epoll() : fd_(epoll_create1(0)) {
  if (fd_ < 0) throw std::runtime_error("epoll_create1 failed");
}

Epoll::~Epoll() {
  if (fd_ >= 0) close(fd_);
}

bool Epoll::add(int fd, std::uint32_t events, std::uint64_t data) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = data;
  return epoll_ctl(fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool Epoll::modify(int fd, std::uint32_t events, std::uint64_t data) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = data;
  return epoll_ctl(fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void Epoll::remove(int fd) { epoll_ctl(fd_, EPOLL_CTL_DEL, fd, nullptr); }

int Epoll::wait(std::vector<epoll_event>& out, int timeout_ms) {
  if (out.size() < 64) out.resize(64);
  const int n = epoll_wait(fd_, out.data(), static_cast<int>(out.size()), timeout_ms);
  if (n < 0) return errno == EINTR ? 0 : -1;
  return n;
}

}  // namespace pnm

#ifndef PNM_UTIL_SOCKET_HPP
#define PNM_UTIL_SOCKET_HPP

/// \file socket.hpp
/// \brief Thin POSIX TCP + epoll helpers for the serving layer.
///
/// The serving layer (pnm/serve) needs exactly four things from the OS:
/// a listening socket, outbound connections, sends (one-shot nonblocking
/// ones for the server, reliable full-buffer ones for clients), and an
/// edge-free readiness loop.
/// These wrappers keep the raw fd plumbing (SIGPIPE suppression via
/// MSG_NOSIGNAL, EINTR retries, TCP_NODELAY for sub-millisecond
/// micro-batching, partial-write continuation) in one audited place, in
/// the same spirit as fileio.hpp for the persistence layer.  Linux-only
/// (epoll), like the flock-based store.

#include <cstddef>
#include <cstdint>
#include <string>
#include <sys/epoll.h>
#include <vector>

namespace pnm {

/// Creates a nonblocking TCP listening socket.
///
/// \param port           port to bind (0 picks an ephemeral port; read it
///                       back with local_port()).
/// \param loopback_only  bind 127.0.0.1 (benches/tests/CI) instead of all
///                       interfaces.
/// \param backlog        listen(2) backlog.
/// \param reuse_port     set SO_REUSEPORT before binding: several sockets
///                       may then share one port, the kernel spreading
///                       incoming connections across them — this is what
///                       gives each serve reactor its own accept queue.
///                       Every socket on the port must set it.
/// \return the listening fd, or -1 on failure (errno left set).
int tcp_listen(std::uint16_t port, bool loopback_only = true, int backlog = 128,
               bool reuse_port = false);

/// The port a bound socket actually listens on (resolves port 0).
///
/// \param fd  a bound socket.
/// \return the local port, or 0 on failure.
std::uint16_t tcp_local_port(int fd);

/// Blocking TCP connect with TCP_NODELAY set.  An EINTR during the
/// three-way handshake does NOT abort the attempt: POSIX keeps the
/// connection completing asynchronously (a naive retry loop would see
/// EALREADY and report a spurious failure), so the interrupted path
/// waits for writability and reads SO_ERROR for the real verdict.
///
/// \param host  IPv4 dotted-quad or "localhost".
/// \param port  target port.
/// \return the connected fd, or -1 on failure.
int tcp_connect(const std::string& host, std::uint16_t port);

/// Accepts one pending connection (nonblocking listen socket) and sets
/// the result nonblocking with TCP_NODELAY.  Retries through EINTR and
/// ECONNABORTED (a peer that connected and reset before accept(2) ran —
/// routine under fault injection — must not abort the accept sweep).
///
/// \param listen_fd  the listening socket.
/// \return the connection fd; -1 when nothing is pending (errno EAGAIN or
///         EWOULDBLOCK) or on error (errno says which, e.g. EMFILE when
///         the process is out of descriptors).
int tcp_accept(int listen_fd);

/// Marks `fd` nonblocking.
/// \param fd  any descriptor.
/// \return false on fcntl failure.
bool set_nonblocking(int fd);

/// Sends the whole buffer, retrying on EINTR and waiting (poll) through
/// EAGAIN on nonblocking sockets.  MSG_NOSIGNAL: a peer that vanished
/// yields false, never SIGPIPE.
///
/// The stall cap bounds how long the call tolerates *zero progress*: a
/// peer that stops draining its receive window would otherwise park the
/// sending thread forever on a full socket buffer.  The cap is wall
/// time since the last byte the kernel accepted, not total call time,
/// so a large buffer draining slowly-but-steadily still completes.
/// EINTR during the wait does not consume stall budget.  This is the
/// client-side send (ServeClient, load generators); the server never
/// blocks on a peer — its reactors buffer unsent output and use
/// send_some (see serve/server.hpp).
///
/// \param fd        connected socket.
/// \param data      bytes to send.
/// \param n         byte count.
/// \param stall_ms  give up after this many ms without a single byte of
///                  progress (>= 1).  Every caller but the socket tests
///                  keeps the 5000 default; the tests shorten it so the
///                  give-up path runs in milliseconds.
/// \return true when every byte was accepted by the kernel.
bool send_all(int fd, const void* data, std::size_t n, int stall_ms = 5000);

/// One nonblocking send(2) with EINTR retry and MSG_NOSIGNAL (a vanished
/// peer yields -1 with EPIPE or ECONNRESET, never SIGPIPE).
///
/// \param fd    connected socket.
/// \param data  bytes to send.
/// \param n     byte count (> 0).
/// \return bytes the kernel accepted (> 0); -1 on error or when the
///         socket buffer is full (errno EAGAIN).
long send_some(int fd, const void* data, std::size_t n);

/// One recv(2) with EINTR retry.
///
/// \param fd   connected socket.
/// \param buf  destination buffer.
/// \param n    capacity.
/// \return bytes read (> 0); 0 on orderly close; -1 on error or — for
///         nonblocking sockets — when nothing is available (errno EAGAIN).
long recv_some(int fd, void* buf, std::size_t n);

/// Receives exactly `n` bytes on a blocking socket, bounded by a timeout.
///
/// \param fd          connected (blocking) socket.
/// \param buf         destination buffer.
/// \param n           bytes required.
/// \param timeout_ms  overall deadline; <= 0 waits forever.
/// \return true when all `n` bytes arrived.
bool recv_exact(int fd, void* buf, std::size_t n, int timeout_ms);

/// RAII epoll instance.  Level-triggered throughout — the serve IO loop
/// drains readable connections until EAGAIN anyway, and level-triggered
/// readiness cannot lose events across the admission queue's backpressure.
class Epoll {
 public:
  /// Creates the epoll instance (throws std::runtime_error on failure —
  /// this only fails on fd exhaustion, which is unrecoverable for a
  /// server anyway).
  Epoll();
  ~Epoll();
  Epoll(const Epoll&) = delete;
  Epoll& operator=(const Epoll&) = delete;

  /// Registers `fd` for `events` (EPOLLIN etc.) with user tag `data`.
  /// \return false on epoll_ctl failure.
  bool add(int fd, std::uint32_t events, std::uint64_t data);

  /// Replaces the event mask and tag of a registered `fd`.
  /// \return false on epoll_ctl failure.
  bool modify(int fd, std::uint32_t events, std::uint64_t data);

  /// Unregisters `fd` (ignores failure: the fd may already be closed).
  void remove(int fd);

  /// Waits for events.
  ///
  /// \param out         receives ready events (resized to the count).
  /// \param timeout_ms  epoll_wait timeout; -1 blocks.
  /// \return number of ready events (0 on timeout); -1 on error other
  ///         than EINTR (EINTR reports 0).
  int wait(std::vector<epoll_event>& out, int timeout_ms);

 private:
  int fd_ = -1;
};

}  // namespace pnm

#endif  // PNM_UTIL_SOCKET_HPP

#include "pnm/serve/server.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <optional>
#include <sched.h>
#include <stdexcept>
#include <sys/eventfd.h>
#include <unistd.h>
#include <unordered_map>
#include <utility>

#include "pnm/core/infer_simd.hpp"
#include "pnm/core/model_io.hpp"
#include "pnm/core/qmlp.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/util/socket.hpp"

namespace pnm::serve {

namespace {

/// Unsent output one connection may hold.  A peer that leaves more than
/// this unread (on top of what the kernel's socket buffers absorb) is
/// dropped and its pending frames are counted as dropped responses: the
/// bound on what a stalled reader can cost the server.  A healthy
/// pipelined client holds far less in flight (4096 predict responses are
/// 68 KiB).
constexpr std::size_t kMaxUnsentBytes = std::size_t{256} << 10;

/// How long a reactor with requests in flight polls epoll before it
/// blocks, when it may run on more than one CPU.  A thread blocked in
/// epoll_wait lets its CPU halt, and waking a halted vCPU is slow: on a
/// 4-vCPU VM an eventfd wake took about 20 µs at p50 and 80 µs at p99,
/// against 2-3 µs and 9-18 µs for a thread that polls.  Every response
/// crosses from a worker to its reactor, so the reactor stays awake
/// about one wake's cost after its last event, while a hand-off is still
/// due.  On a single CPU the hand-off cannot come from a halted CPU, and
/// the time polled is taken from the worker and clients sharing it
/// (pinned to one CPU, perfbench serve_pendigits' p50 and p90 and most
/// p99s of paced two-model loads on 1, 2 and 4 reactors were lower
/// without polling), so there it never polls.
constexpr std::chrono::microseconds kPollBeforeBlock{50};

/// How long a reactor leaves its listen socket unpolled after accept(2)
/// failed for something other than an empty queue (such as EMFILE or
/// ENFILE: out of descriptors).  The socket is level-triggered and the pending
/// connection stays queued, so polling it again at once would spin; a
/// closing connection re-arms it sooner.  The timer covers descriptors
/// freed elsewhere (another reactor, another process).
constexpr int kAcceptRetryMs = 100;

/// Connection events every reactor watches; EPOLLOUT is added only while
/// a connection has output the kernel would not yet take.
constexpr std::uint32_t kReadEvents = EPOLLIN | EPOLLRDHUP;

/// CPUs the calling thread may run on (its affinity mask; 1 if unknown).
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
}

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from).count());
}

/// Per-socket state, owned by its reactor's connection map; no other
/// thread ever touches it.  The output buffer holds whole frames in
/// order; `sent_` bytes of it are already with the kernel.
class Connection {
 public:
  Connection(std::uint64_t id, int fd, std::size_t max_frame_bytes)
      : id_(id), fd_(fd), reader_(max_frame_bytes) {}
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] int fd() const { return fd_; }
  FrameReader& reader() { return reader_; }

  /// Queues `frames` whole encoded frames for the peer.
  void append(std::span<const std::uint8_t> bytes, std::uint64_t frames) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
    unsent_frames_ += frames;
  }

  /// One nonblocking send of the unsent bytes.
  /// \return false when the peer is gone (the socket reported an error).
  bool send_pending() {
    const long rc = send_some(fd_, out_.data() + sent_, out_.size() - sent_);
    if (rc < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    sent_ += static_cast<std::size_t>(rc);
    if (sent_ == out_.size()) {
      out_.clear();  // keeps capacity
      sent_ = 0;
      head_ = 0;
      unsent_frames_ = 0;
      return true;
    }
    // Step over the frames the kernel now holds whole, so unsent_frames()
    // stays exact, and drop their bytes once they are half the buffer.
    for (;;) {
      const std::size_t end = head_ + 4 + read_u32(out_.data() + head_);
      if (end > sent_) break;
      head_ = end;
      --unsent_frames_;
    }
    if (head_ * 2 >= out_.size()) {
      out_.erase(out_.begin(), out_.begin() + static_cast<std::ptrdiff_t>(head_));
      sent_ -= head_;
      head_ = 0;
    }
    return true;
  }

  [[nodiscard]] std::size_t unsent_bytes() const { return out_.size() - sent_; }
  /// Frames not yet wholly accepted by the kernel.
  [[nodiscard]] std::uint64_t unsent_frames() const { return unsent_frames_; }

  bool armed = false;    ///< EPOLLOUT registered (the socket was full)
  bool dirty = false;    ///< on the reactor's flush list
  bool closing = false;  ///< broke the protocol: reads nothing, drains its output
  bool doomed = false;   ///< on the reactor's drop list; serves nothing more

 private:
  std::uint64_t id_;
  int fd_;
  FrameReader reader_;
  std::vector<std::uint8_t> out_;
  std::size_t sent_ = 0;  ///< bytes of out_ the kernel accepted
  std::size_t head_ = 0;  ///< start of the first frame not wholly sent
  std::uint64_t unsent_frames_ = 0;
};

/// Wraps a lone model into a fresh one-entry registry (name "default").
std::shared_ptr<ModelRegistry> make_single_registry(ServedModel model) {
  auto registry = std::make_shared<ModelRegistry>();
  std::string error;
  if (!registry->register_model("default", std::move(model), &error)) {
    throw std::invalid_argument("Server: " + error);
  }
  return registry;
}

}  // namespace

/// One connection's share of a worker batch: every frame the batch answers
/// it with, encoded in processing order, for one hand-off.
struct Server::Outbox {
  std::uint32_t reactor = 0;
  std::uint64_t conn = 0;
  std::vector<std::uint8_t> bytes;  ///< capacity reused across batches
  std::uint64_t frames = 0;         ///< 0 once handed off
};

/// One reactor's hand-off queue.  Workers append each batch's encoded
/// responses, tagged with their connection ids; the reactor takes
/// everything queued at once by swapping buffers.  The reactor's wake
/// eventfd lives here too: a worker writes it only when the reactor is
/// not already signalled, and Server::stop() writes it (after clearing
/// `running_`) to make the reactor exit.
class Server::Outlet {
 public:
  /// Bytes of consecutive frames for one connection.
  struct Delivery {
    std::uint64_t conn;
    std::size_t bytes;
    std::uint64_t frames;
  };

  Outlet() : wake_fd_(eventfd(0, EFD_NONBLOCK)) {
    if (wake_fd_ < 0) throw std::runtime_error("Server: eventfd failed");
  }
  ~Outlet() { ::close(wake_fd_); }
  Outlet(const Outlet&) = delete;
  Outlet& operator=(const Outlet&) = delete;

  [[nodiscard]] int wake_fd() const { return wake_fd_; }

  void wake() const {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t rc = ::write(wake_fd_, &one, sizeof(one));
  }

  /// Worker side: queues every box of `boxes` routed to `reactor` under
  /// one lock and marks it handed off (frames = 0).  After close() the
  /// frames are counted as dropped instead.
  void deliver(std::span<Outbox> boxes, std::uint32_t reactor, ServeMetrics& metrics) {
    bool wake_reactor = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (Outbox& box : boxes) {
        if (box.reactor != reactor || box.frames == 0) continue;
        if (closed_) {
          metrics.on_dropped_response(box.frames);
        } else {
          bytes_.insert(bytes_.end(), box.bytes.begin(), box.bytes.end());
          deliveries_.push_back({box.conn, box.bytes.size(), box.frames});
        }
        box.frames = 0;
      }
      if (!closed_ && !deliveries_.empty()) {
        wake_reactor = !signalled_;
        signalled_ = true;
      }
    }
    if (wake_reactor) wake();
  }

  /// Reactor side: swaps everything queued into `bytes` and `deliveries`
  /// (both empty on entry).  With `woken`, first consumes the eventfd and
  /// then clears the signal under the lock, so any delivery after this
  /// take wakes the reactor again; without it (the check after a read)
  /// the signal stays set and the pending eventfd wake will find the
  /// queue drained.
  /// \return false when nothing was queued.
  bool take(std::vector<std::uint8_t>& bytes, std::vector<Delivery>& deliveries, bool woken) {
    if (woken) {
      std::uint64_t count = 0;
      [[maybe_unused]] const ssize_t rc = ::read(wake_fd_, &count, sizeof(count));
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (woken) signalled_ = false;
    bytes_.swap(bytes);
    deliveries_.swap(deliveries);
    return !deliveries.empty();
  }

  /// Reactor exit: counts the queued frames as dropped, and so every
  /// later delivery.
  void close(ServeMetrics& metrics) {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    for (const Delivery& d : deliveries_) metrics.on_dropped_response(d.frames);
    deliveries_.clear();
    bytes_.clear();
  }

 private:
  const int wake_fd_;
  std::mutex mu_;
  std::vector<std::uint8_t> bytes_;
  std::vector<Delivery> deliveries_;
  bool signalled_ = false;  ///< the eventfd was written since the reactor last consumed it
  bool closed_ = false;
};

Server::Server(ServeConfig config, ServedModel model)
    : Server(config, make_single_registry(std::move(model))) {}

Server::Server(ServeConfig config, std::shared_ptr<ModelRegistry> registry)
    : config_(config),
      registry_(std::move(registry)),
      metrics_(config.batch_max, config.reactors),
      batcher_(config.batch_max, config.batch_deadline_us) {
  if (config_.reactors == 0) {
    throw std::invalid_argument("Server: reactors must be >= 1");
  }
  if (config_.worker_threads == 0) {
    throw std::invalid_argument("Server: worker_threads must be >= 1");
  }
  if (registry_ == nullptr || registry_->size() == 0) {
    throw std::invalid_argument("Server: registry holds no models");
  }
}

Server::~Server() { stop(); }

void Server::close_sockets() {
  for (const int fd : listen_fds_) {
    if (fd >= 0) ::close(fd);
  }
  listen_fds_.clear();
  outlets_.clear();
}

void Server::start() {
  if (stopped_.load()) {
    throw std::logic_error("Server: start() after stop(); a stopped server cannot restart");
  }
  if (running_.exchange(true)) return;
  // With one reactor the classic exclusive bind is kept; with several,
  // every sibling sets SO_REUSEPORT and the kernel spreads incoming
  // connections across their accept queues.
  const bool reuse = config_.reactors > 1;
  const int first = tcp_listen(config_.port, config_.loopback_only, 128, reuse);
  if (first < 0) {
    running_.store(false);
    throw std::runtime_error(std::string("Server: cannot listen: ") + std::strerror(errno));
  }
  listen_fds_.push_back(first);
  port_ = tcp_local_port(first);
  for (std::size_t i = 1; i < config_.reactors; ++i) {
    const int fd = tcp_listen(port_, config_.loopback_only, 128, true);
    if (fd < 0) {
      const std::string why = std::strerror(errno);
      close_sockets();
      running_.store(false);
      throw std::runtime_error("Server: cannot bind reactor socket: " + why);
    }
    listen_fds_.push_back(fd);
  }
  try {
    for (std::size_t i = 0; i < config_.reactors; ++i) {
      outlets_.push_back(std::make_unique<Outlet>());
    }
  } catch (const std::runtime_error&) {
    close_sockets();
    running_.store(false);
    throw;
  }
  io_threads_.reserve(config_.reactors);
  for (std::size_t i = 0; i < config_.reactors; ++i) {
    io_threads_.emplace_back([this, i] { io_loop(i); });
  }
  workers_.reserve(config_.worker_threads);
  for (std::size_t i = 0; i < config_.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  stopped_.store(true);
  // Wake every reactor; each closes its own connections and its outlet on
  // the way out.
  for (const auto& outlet : outlets_) outlet->wake();
  for (std::thread& t : io_threads_) {
    if (t.joinable()) t.join();
  }
  io_threads_.clear();
  // Drain what was admitted (the closed outlets count those responses as
  // dropped), then release the workers.
  batcher_.shutdown();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  close_sockets();
}

MetricsSnapshot Server::stats() const {
  MetricsSnapshot s = metrics_.snapshot(batcher_.depth());
  s.models = registry_->stats();
  return s;
}

bool Server::swap_model(std::string_view name, const std::string& path, std::string* error) {
  const bool ok = registry_->swap(name, path, error);
  metrics_.on_swap(ok);
  return ok;
}

bool Server::handle_admin_frame(std::vector<std::uint8_t>& out, FrameType type,
                                std::span<const std::uint8_t> payload) {
  if (type == FrameType::kStats) {
    const std::string json = stats().to_json();
    encode_payload_frame(out, FrameType::kStatsResp,
                         std::span<const std::uint8_t>(
                             reinterpret_cast<const std::uint8_t*>(json.data()), json.size()));
    return true;
  }
  std::string name;
  std::string path;
  if (!decode_swap_req(payload, name, path)) return false;
  std::string error;
  if (swap_model(name, path, &error)) {
    const std::shared_ptr<const ServedModel> m = registry_->get(name);
    encode_swap_resp(out, true,
                     "model " + (m == nullptr ? name : m->name) + " version " +
                         std::to_string(m == nullptr ? 0 : m->version));
  } else {
    encode_swap_resp(out, false, error);
  }
  return true;
}

void Server::io_loop(std::size_t reactor) {
  Epoll epoll;
  Outlet& outlet = *outlets_[reactor];
  // Tags: 0 = listen socket, 1 = wake eventfd, otherwise a connection id.
  constexpr std::uint64_t kListenTag = 0;
  constexpr std::uint64_t kWakeTag = 1;
  const int listen_fd = listen_fds_[reactor];
  epoll.add(listen_fd, EPOLLIN, kListenTag);
  epoll.add(outlet.wake_fd(), EPOLLIN, kWakeTag);

  const std::chrono::microseconds poll_window =
      usable_cpus() > 1 ? kPollBeforeBlock : std::chrono::microseconds{0};
  std::unordered_map<std::uint64_t, Connection> conns;
  std::uint64_t next_tag = 2;
  std::uint64_t in_flight = 0;  // admitted here, not yet handed back by a worker
  std::vector<epoll_event> events;
  std::vector<std::uint8_t> rx(64 * 1024);
  std::vector<std::uint8_t> reply;
  std::vector<ServeRequest*> admit;  // the predicts one read decoded, in order
  std::vector<ServeRequest*> spare;  // recycled requests ready for decoding
  std::vector<std::pair<std::string, std::shared_ptr<const ServedModel>>> routes;
  std::vector<std::uint8_t> handed;  // hand-offs taken from the outlet
  std::vector<Outlet::Delivery> deliveries;
  std::vector<Connection*> dirty;      // connections with output to flush
  std::vector<std::uint64_t> doomed;   // connections to drop after this event
  // Set while the listen socket is out of the epoll set after a failed
  // accept (kAcceptRetryMs); the time it is re-armed at the latest.
  std::optional<std::chrono::steady_clock::time_point> accept_retry_at;
  const auto resume_accepts = [&] {
    if (accept_retry_at && epoll.add(listen_fd, EPOLLIN, kListenTag)) accept_retry_at.reset();
  };

  const auto doom = [&](Connection& conn) {
    if (conn.doomed) return;
    conn.doomed = true;
    doomed.push_back(conn.id());
  };

  // Queues frames for `conn`; each read and each wake ends by flushing
  // every connection that got output.
  const auto queue = [&](Connection& conn, std::span<const std::uint8_t> bytes,
                         std::uint64_t frames) {
    conn.append(bytes, frames);
    if (!conn.dirty) {
      conn.dirty = true;
      dirty.push_back(&conn);
    }
  };

  // Admits the predicts decoded so far with one count, one push and one
  // wake-up.  Counted before the push, so responses never outrun requests.
  const auto admit_decoded = [&](std::chrono::steady_clock::time_point received) {
    metrics_.on_requests(reactor, admit.size());
    in_flight += admit.size();
    batcher_.push(admit, received);
    admit.clear();
  };

  // One registry lookup per read and model name.  Names are never removed
  // from the registry, and a swap that lands between this lookup and the
  // worker's pin costs that worker one re-quantize (it re-checks the
  // staged bit width), never correctness.
  const auto route_of = [&](const std::string& name) -> const ServedModel* {
    for (const auto& [routed, model] : routes) {
      if (routed == name) return model.get();
    }
    routes.emplace_back(name, registry_->get(name));
    return routes.back().second.get();
  };

  // Appends the workers' hand-offs to their connections; frames for a
  // connection this reactor no longer serves are dropped responses.
  const auto take_handoffs = [&](bool woken) {
    if (!outlet.take(handed, deliveries, woken)) return;
    std::size_t at = 0;
    for (const Outlet::Delivery& d : deliveries) {
      in_flight -= d.frames;  // one frame per admitted request
      const auto it = conns.find(d.conn);
      if (it == conns.end() || it->second.doomed || it->second.closing) {
        metrics_.on_dropped_response(d.frames);
      } else {
        queue(it->second, {handed.data() + at, d.bytes}, d.frames);
      }
      at += d.bytes;
    }
    handed.clear();
    deliveries.clear();
  };

  // Sends what `conn` has pending — one nonblocking send, skipped while
  // the socket is known to be full unless epoll just reported it
  // writable — and keeps EPOLLOUT armed exactly while output is pending.
  // A peer that is gone, or that leaves more than kMaxUnsentBytes unread,
  // is dropped, and so is a closing connection once its output is out.
  // Nothing here ever waits for a peer.
  const auto flush = [&](Connection& conn, bool writable) {
    if (conn.doomed || conn.unsent_bytes() == 0) return;
    if (writable || !conn.armed) {
      metrics_.on_response_write();
      if (!conn.send_pending()) {
        doom(conn);
        return;
      }
    }
    const bool pending = conn.unsent_bytes() > 0;
    if (conn.closing) {
      if (!pending) doom(conn);
    } else if (conn.unsent_bytes() > kMaxUnsentBytes) {
      doom(conn);
    } else if (pending != conn.armed) {
      epoll.modify(conn.fd(), kReadEvents | (pending ? EPOLLOUT : 0U), conn.id());
      conn.armed = pending;
    }
  };

  const auto flush_dirty = [&] {
    for (Connection* conn : dirty) {
      conn->dirty = false;
      flush(*conn, false);
    }
    dirty.clear();
  };

  // A connection that broke the protocol reads nothing more and stays
  // only until its pending output, the error frame last, has gone out, so
  // a peer that is slow to read still gets the error; like any open
  // connection, it stays while its peer neither reads nor hangs up.  Its
  // mask drops EPOLLIN: unread input must not keep waking the reactor.
  const auto close_after_output = [&](Connection& conn) {
    if (conn.doomed || conn.unsent_bytes() == 0) {
      doom(conn);
      return;
    }
    conn.closing = true;
    conn.armed = true;
    epoll.modify(conn.fd(), EPOLLOUT, conn.id());
  };

  const auto drop_connection = [&](std::uint64_t tag) {
    const auto it = conns.find(tag);
    if (it == conns.end()) return;
    Connection& conn = it->second;
    if (conn.reader().mid_frame()) metrics_.on_truncated_frame();
    metrics_.on_dropped_response(conn.unsent_frames());
    epoll.remove(conn.fd());
    metrics_.on_connection_closed();
    conns.erase(it);  // closes the fd
    resume_accepts();  // a descriptor is free again
  };

  // Reads everything `conn` has, admitting each read's predicts and then
  // flushing.  Drops the connection when it hung up or broke, and closes
  // it after its output when it broke the protocol.
  const auto serve_connection = [&](Connection& conn, std::uint32_t ev) {
    if ((ev & EPOLLOUT) != 0) flush(conn, true);
    bool broken = (ev & (EPOLLHUP | EPOLLERR)) != 0;
    bool hung_up = (ev & EPOLLRDHUP) != 0;
    bool violated = false;
    while (!broken && !violated && !conn.doomed && (ev & (EPOLLIN | EPOLLRDHUP)) != 0) {
      const long got = recv_some(conn.fd(), rx.data(), rx.size());
      if (got <= 0) {
        // 0: orderly close; EAGAIN: drained; anything else: hard error.
        if (got == 0) {
          hung_up = true;
        } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
          broken = true;
        }
        break;
      }
      // One clock read per read, before decoding: every request it
      // carries is admitted at this instant, so server latency covers
      // decode and staging.
      const auto received = std::chrono::steady_clock::now();
      const bool ok = conn.reader().feed(
          rx.data(), static_cast<std::size_t>(got),
          [&](FrameType type, std::span<const std::uint8_t> payload) {
            if (violated) return;  // nothing after a violation is served
            const char* violation = nullptr;
            switch (type) {
              case FrameType::kPredict: {
                if (spare.empty()) pool_.acquire(spare);
                ServeRequest* r = spare.back();
                spare.pop_back();
                if (!decode_predict(payload, r->id, r->features, &r->model_name)) {
                  spare.push_back(r);
                  violation = "malformed predict frame";
                  break;
                }
                // Pipelined handoff: quantize at admission against the
                // model the request routes to in this read.
                const ServedModel* m = route_of(r->model_name);
                if (m == nullptr) {
                  // Request-level failure: typed error, and the
                  // connection (with its other in-flight requests) keeps
                  // serving.  Not an admitted request.
                  metrics_.on_unknown_model();
                  reply.clear();
                  encode_error(reply, ErrorCode::kUnknownModel, "unknown model: " + r->model_name);
                  queue(conn, reply, 1);
                  spare.push_back(r);
                  break;
                }
                if (r->features.size() == m->mlp.input_size()) {
                  quantize_input_into(r->features, m->mlp.input_bits(), r->xq);
                  r->staged_bits = m->mlp.input_bits();
                }
                r->reactor = static_cast<std::uint32_t>(reactor);
                r->conn = conn.id();
                admit.push_back(r);
                break;
              }
              case FrameType::kStats:
              case FrameType::kSwap:
                // The predicts ahead of it in the stream go first, so
                // stats count them and a swap never overtakes them.
                admit_decoded(received);
                reply.clear();
                if (handle_admin_frame(reply, type, payload)) {
                  queue(conn, reply, 1);
                } else {
                  violation = "malformed swap frame";
                }
                break;
              default:
                violation = "unexpected frame type";
                break;
            }
            if (violation != nullptr) {
              // A protocol violation: kError{kMalformedFrame}, then the
              // connection closes (its framing cannot be trusted past the
              // frame).
              metrics_.on_protocol_error();
              reply.clear();
              encode_error(reply, ErrorCode::kMalformedFrame, violation);
              queue(conn, reply, 1);
              violated = true;
            }
          });
      if (!ok && !violated) {
        // Framing violation (zero/oversized length): unrecoverable.
        metrics_.on_oversized();
        reply.clear();
        encode_error(reply, ErrorCode::kMalformedFrame, "bad frame length");
        queue(conn, reply, 1);
        violated = true;
      }
      routes.clear();
      // Predicts decoded before a violation or a hangup in this read are
      // still admitted, then every pending output goes out.
      admit_decoded(received);
      take_handoffs(false);
      flush_dirty();
    }
    if (broken || (hung_up && !violated)) {
      doom(conn);
    } else if (violated) {
      close_after_output(conn);
    }
  };

  bool stopping = false;
  while (!stopping) {
    int n = epoll.wait(events, 0);
    for (const auto since = std::chrono::steady_clock::now();
         n == 0 && in_flight > 0 && std::chrono::steady_clock::now() - since < poll_window;) {
      n = epoll.wait(events, 0);
    }
    if (n == 0) n = epoll.wait(events, accept_retry_at ? kAcceptRetryMs : -1);
    if (n < 0) break;
    if (accept_retry_at && std::chrono::steady_clock::now() >= *accept_retry_at) {
      resume_accepts();
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        // stop() clears running_ before it writes the eventfd, so the
        // check must follow the take that consumes the eventfd.
        take_handoffs(true);
        flush_dirty();
        if (!running_.load(std::memory_order_acquire)) {
          stopping = true;
          break;
        }
      } else if (tag == kListenTag) {
        for (;;) {
          const int fd = tcp_accept(listen_fd);
          if (fd < 0) {
            if (errno != EAGAIN && errno != EWOULDBLOCK) {
              metrics_.on_accept_failure();
              epoll.remove(listen_fd);
              accept_retry_at = std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(kAcceptRetryMs);
            }
            break;
          }
          conns.try_emplace(next_tag, next_tag, fd, config_.max_frame_bytes);
          epoll.add(fd, kReadEvents, next_tag);
          ++next_tag;
          metrics_.on_connection_opened();
        }
      } else if (const auto it = conns.find(tag); it != conns.end()) {
        serve_connection(it->second, events[i].events);
      }
      for (const std::uint64_t id : doomed) drop_connection(id);
      doomed.clear();
    }
  }

  outlet.close(metrics_);
  for (const auto& [tag, conn] : conns) {
    metrics_.on_dropped_response(conn.unsent_frames());
    metrics_.on_connection_closed();
  }
  conns.clear();  // closes every socket
  pool_.release(spare);
}

void Server::worker_loop() {
  // A blocked pass costs one full 8-lane block however many lanes are
  // live.  On pendigits one block costs 3.7-3.9 single-sample calls
  // (perfbench serve_pendigits --trace 1, seeds 1-3, 4-vCPU Xeon:
  // infer.single_ns 212-283 ns per sample, infer.block_ns 102-131 ns per
  // lane of a full block), so routes of fewer than 4 requests are cheaper
  // on the single-sample path and routes of 4 or more on the blocked one.
  // Bit-exact either way, so the split is invisible to clients.
  constexpr std::size_t kMinBlockLanes = 4;
  constexpr std::size_t kB = simd::kSampleBlock;

  std::vector<ServeRequest*> batch;
  std::vector<ServeRequest*> unrouted;  // batch members no route has claimed yet
  std::vector<ServeRequest*> ready;     // one route's requests awaiting predict
  std::string route;  // current route's model name (reused capacity)
  std::vector<Outbox> outboxes;  // [0, used) answer the current batch
  std::size_t used = 0;
  InferScratch scratch;
  BlockScratch block_scratch;
  std::size_t preds[kB];
  const simd::Isa isa = simd::active_isa();

  // Every frame goes into the outbox of its request's connection, claimed
  // on that connection's first frame of the batch.  Frames keep the order
  // this loop produces them in: routes in first-seen order, and within a
  // route the width-mismatch rejects, then the predictions in admission
  // order.
  const auto outbox_of = [&](const ServeRequest* r) -> Outbox& {
    for (std::size_t k = 0; k < used; ++k) {
      if (outboxes[k].conn == r->conn && outboxes[k].reactor == r->reactor) return outboxes[k];
    }
    if (used == outboxes.size()) outboxes.emplace_back();
    outboxes[used].reactor = r->reactor;
    outboxes[used].conn = r->conn;
    return outboxes[used++];
  };
  const auto reject = [&](const ServeRequest* r, ErrorCode code, const std::string& message) {
    metrics_.on_predict_error();
    Outbox& box = outbox_of(r);
    encode_error(box.bytes, code, message);
    ++box.frames;
  };

  while (batcher_.pop_batch(batch)) {
    metrics_.on_batch(batch.size());
    // Route the batch: one pass per distinct model name.  Mixed batches
    // are rare (one model dominates any given deployment) and the claim
    // sweep is a pointer scan, so this costs nothing in the common
    // single-route case while keeping the whole batch's admission order
    // within each route.
    unrouted.assign(batch.begin(), batch.end());
    std::size_t remaining = unrouted.size();
    std::size_t first = 0;
    while (remaining > 0) {
      while (unrouted[first] == nullptr) ++first;
      route.assign(unrouted[first]->model_name);
      ready.clear();
      for (std::size_t k = first; k < unrouted.size(); ++k) {
        if (unrouted[k] != nullptr && unrouted[k]->model_name == route) {
          ready.push_back(unrouted[k]);
          unrouted[k] = nullptr;
          --remaining;
        }
      }

      // Pin one design for the whole route: every member is served — and
      // version-tagged — by the same snapshot, whatever swaps land
      // concurrently on this or any other model.
      const std::shared_ptr<const ServedModel> model = registry_->get(route);
      if (model == nullptr) {
        // Unreachable today (admission validates the name and registry
        // entries are never removed), but a typed reject keeps the
        // accounting identities intact if that ever changes.
        for (const ServeRequest* r : ready) {
          reject(r, ErrorCode::kUnknownModel, "unknown model: " + route);
        }
        continue;
      }
      const std::size_t want = model->mlp.input_size();
      const int input_bits = model->mlp.input_bits();

      const auto respond = [&](const ServeRequest* r, std::size_t cls) {
        Outbox& box = outbox_of(r);
        encode_predict_resp(box.bytes, r->id, model->version, static_cast<std::uint32_t>(cls));
        ++box.frames;
      };

      std::size_t fill = 0;  // compact width-mismatch rejects out of `ready`
      for (ServeRequest* r : ready) {
        if (r->features.size() != want) {
          reject(r, ErrorCode::kWidthMismatch, "feature count mismatch");
          continue;
        }
        ready[fill++] = r;
      }
      ready.resize(fill);
      // Same count-before-hand-off rule for the per-model ledger: every
      // entry left in `ready` gets exactly one response from this
      // snapshot, so bump the ledger before anything hits the wire.
      if (!ready.empty()) registry_->count_responses(route, ready.size());

      // Multi-sample path: gather each lane's staged integer features into
      // the blocked buffer (feature-major, lane-minor) and classify kB
      // requests per CSR walk.  Lanes staged against a different bit
      // width (swap raced the admission) are re-quantized here.
      std::size_t i = 0;
      while (ready.size() - i >= kMinBlockLanes) {
        const std::size_t lanes = std::min(kB, ready.size() - i);
        block_scratch.xb.assign(want * kB, 0);
        for (std::size_t j = 0; j < lanes; ++j) {
          ServeRequest* r = ready[i + j];
          const std::int64_t* lane;
          if (r->staged_bits == input_bits) {
            lane = r->xq.data();
          } else {
            quantize_input_into(r->features, input_bits, block_scratch.xq);
            lane = block_scratch.xq.data();
          }
          for (std::size_t f = 0; f < want; ++f) {
            block_scratch.xb[f * kB + j] = lane[f];
          }
        }
        model->mlp.predict_block_into(block_scratch.xb.data(), lanes, block_scratch,
                                      preds, isa);
        for (std::size_t j = 0; j < lanes; ++j) respond(ready[i + j], preds[j]);
        i += lanes;
      }
      for (; i < ready.size(); ++i) {
        ServeRequest* r = ready[i];
        if (r->staged_bits == input_bits) {
          respond(r, model->mlp.predict_quantized_into(r->xq, scratch));
        } else {
          quantize_input_into(r->features, input_bits, scratch.xq);
          respond(r, model->mlp.predict_quantized_into(scratch.xq, scratch));
        }
      }
    }

    // Count every response before the hand-off, so once a client has seen
    // every response, every response is in the counters and a quiescent
    // stats() snapshot balances against the batch histogram (on_batch
    // runs at batch start).
    const auto encoded = std::chrono::steady_clock::now();
    for (const ServeRequest* r : batch) metrics_.on_response(elapsed_us(r->admitted, encoded));
    // Recycle before handing off, so a synchronous client's next request
    // can reuse one of these; the outboxes hold the routes.
    pool_.release(batch);
    // Hand every connection's frames to the reactor that owns its socket,
    // taking each reactor's lock once.  The reactor sends them; a worker
    // never waits for a peer.
    for (std::size_t k = 0; k < used; ++k) {
      if (outboxes[k].frames == 0) continue;  // handed off with an earlier box
      outlets_[outboxes[k].reactor]->deliver({outboxes.data() + k, used - k},
                                             outboxes[k].reactor, metrics_);
    }
    for (std::size_t k = 0; k < used; ++k) outboxes[k].bytes.clear();
    used = 0;
  }
}

}  // namespace pnm::serve

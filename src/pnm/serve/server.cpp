#include "pnm/serve/server.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <sys/eventfd.h>
#include <unistd.h>
#include <unordered_map>

#include "pnm/core/infer_simd.hpp"
#include "pnm/core/model_io.hpp"
#include "pnm/core/qmlp.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/util/socket.hpp"

namespace pnm::serve {

/// Per-socket connection state.  The owning reactor holds the read side
/// exclusively; the write side is shared between workers (responses) and
/// that reactor (admin/error replies) under `write_mu`.  The fd stays
/// open until the last shared_ptr drops, so a worker finishing a batch
/// after the reactor saw the hangup writes into a dead-but-valid
/// socket (EPIPE, counted as a dropped response) — never into a recycled
/// descriptor.
class Connection {
 public:
  Connection(int fd, std::size_t max_frame_bytes) : fd_(fd), reader_(max_frame_bytes) {}
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  FrameReader& reader() { return reader_; }

  /// Marks the connection dead (no further writes are attempted).
  void mark_closed() { closed_.store(true, std::memory_order_release); }
  [[nodiscard]] bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Serialized write of one or more whole frames (a worker passes every
  /// response its batch holds for this connection); false when the peer
  /// is gone.  The stall cap is tighter than send_all's default: with
  /// several reactors feeding one worker pool, a single peer that stops
  /// reading must not park a worker for multiple seconds.
  bool write_frame(const std::vector<std::uint8_t>& bytes) {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (closed()) return false;
    if (send_all(fd_, bytes.data(), bytes.size(), /*stall_ms=*/2000)) return true;
    mark_closed();
    return false;
  }

 private:
  int fd_;
  FrameReader reader_;
  std::atomic<bool> closed_{false};
  std::mutex write_mu_;
};

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from).count());
}

/// One connection's share of a worker batch: every frame the batch answers
/// it with, encoded in processing order, for one write.
struct Outbox {
  std::shared_ptr<Connection> conn;
  std::vector<std::uint8_t> bytes;  ///< capacity reused across batches
  std::uint64_t frames = 0;
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
  for (const int fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
  }
  wake_fds_.clear();
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
  for (std::size_t i = 0; i < config_.reactors; ++i) {
    const int fd = eventfd(0, EFD_NONBLOCK);
    if (fd < 0) {
      close_sockets();
      running_.store(false);
      throw std::runtime_error("Server: eventfd failed");
    }
    wake_fds_.push_back(fd);
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
  // Wake every reactor; each closes its own connections on the way out.
  const std::uint64_t one = 1;
  for (const int fd : wake_fds_) {
    [[maybe_unused]] const ssize_t rc = ::write(fd, &one, sizeof(one));
  }
  for (std::thread& t : io_threads_) {
    if (t.joinable()) t.join();
  }
  io_threads_.clear();
  // Drain what was admitted, then release the workers.
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

bool Server::handle_admin_frame(Connection& conn, FrameType type,
                                std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  if (type == FrameType::kStats) {
    const std::string json = stats().to_json();
    encode_payload_frame(out, FrameType::kStatsResp,
                         std::span<const std::uint8_t>(
                             reinterpret_cast<const std::uint8_t*>(json.data()), json.size()));
  } else {
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
  }
  if (!conn.write_frame(out)) metrics_.on_dropped_response();
  return true;
}

void Server::io_loop(std::size_t reactor) {
  Epoll epoll;
  // Tags: 0 = listen socket, 1 = wake eventfd, otherwise a connection id.
  constexpr std::uint64_t kListenTag = 0;
  constexpr std::uint64_t kWakeTag = 1;
  const int listen_fd = listen_fds_[reactor];
  epoll.add(listen_fd, EPOLLIN, kListenTag);
  epoll.add(wake_fds_[reactor], EPOLLIN, kWakeTag);

  std::unordered_map<std::uint64_t, std::shared_ptr<Connection>> conns;
  std::uint64_t next_tag = 2;
  std::vector<epoll_event> events;
  std::vector<std::uint8_t> rx(64 * 1024);
  std::vector<std::uint8_t> reply;
  std::vector<ServeRequest*> admit;  // the predicts one read decoded, in order

  // A protocol violation: kError{kMalformedFrame}, after which the caller
  // closes the connection (its framing cannot be trusted past the frame).
  const auto send_malformed = [&](Connection& conn, const char* why) {
    reply.clear();
    encode_error(reply, ErrorCode::kMalformedFrame, why);
    conn.write_frame(reply);
  };

  // Admits the predicts decoded so far with one count, one push and one
  // wake-up.  Counted before the push, so responses never outrun requests.
  const auto admit_decoded = [&](std::chrono::steady_clock::time_point received) {
    metrics_.on_requests(reactor, admit.size());
    batcher_.push(admit, received);
    admit.clear();
  };

  const auto drop_connection = [&](std::uint64_t tag) {
    const auto it = conns.find(tag);
    if (it == conns.end()) return;
    if (it->second->reader().mid_frame()) metrics_.on_truncated_frame();
    epoll.remove(it->second->fd());
    it->second->mark_closed();
    metrics_.on_connection_closed();
    conns.erase(it);  // fd closes when in-flight requests release the ref
  };

  bool stopping = false;
  while (!stopping) {
    const int n = epoll.wait(events, -1);
    if (n < 0) break;
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        stopping = true;
        break;
      }
      if (tag == kListenTag) {
        for (;;) {
          const int fd = tcp_accept(listen_fd);
          if (fd < 0) break;
          auto conn = std::make_shared<Connection>(fd, config_.max_frame_bytes);
          epoll.add(fd, EPOLLIN | EPOLLRDHUP, next_tag);
          conns.emplace(next_tag, std::move(conn));
          ++next_tag;
          metrics_.on_connection_opened();
        }
        continue;
      }
      const auto it = conns.find(tag);
      if (it == conns.end()) continue;
      const std::shared_ptr<Connection> conn = it->second;

      bool drop = (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
      bool peer_done = (events[i].events & EPOLLRDHUP) != 0;
      while (!drop) {
        const long got = recv_some(conn->fd(), rx.data(), rx.size());
        if (got > 0) {
          // One clock read per read, before decoding: every request it
          // carries is admitted at this instant, so server latency covers
          // decode and staging.
          const auto received = std::chrono::steady_clock::now();
          const bool ok = conn->reader().feed(
              rx.data(), static_cast<std::size_t>(got),
              [&](FrameType type, std::span<const std::uint8_t> payload) {
                if (drop) return;  // nothing after a violation is served
                const char* violation = nullptr;
                switch (type) {
                  case FrameType::kPredict: {
                    ServeRequest* r = pool_.acquire();
                    if (!decode_predict(payload, r->id, r->features, &r->model_name)) {
                      pool_.release({&r, 1});
                      violation = "malformed predict frame";
                      break;
                    }
                    // One lookup serves both the name check and the
                    // pipelined handoff: quantize at admission against the
                    // model the request routes to *right now*.  The worker
                    // re-checks the staged bit width against the model it
                    // actually pins, so a swap landing in between costs
                    // one re-quantize, never correctness.
                    const std::shared_ptr<const ServedModel> m = registry_->get(r->model_name);
                    if (m == nullptr) {
                      // Request-level failure: typed error, and the
                      // connection (with its other in-flight requests)
                      // keeps serving.  Not an admitted request.
                      metrics_.on_unknown_model();
                      reply.clear();
                      encode_error(reply, ErrorCode::kUnknownModel,
                                   "unknown model: " + r->model_name);
                      pool_.release({&r, 1});
                      if (!conn->write_frame(reply)) metrics_.on_dropped_response();
                      break;
                    }
                    if (r->features.size() == m->mlp.input_size()) {
                      quantize_input_into(r->features, m->mlp.input_bits(), r->xq);
                      r->staged_bits = m->mlp.input_bits();
                    }
                    r->conn = conn;
                    admit.push_back(r);
                    break;
                  }
                  case FrameType::kStats:
                  case FrameType::kSwap:
                    // The predicts ahead of it in the stream go first, so
                    // stats count them and a swap never overtakes them.
                    admit_decoded(received);
                    if (!handle_admin_frame(*conn, type, payload)) {
                      violation = "malformed swap frame";
                    }
                    break;
                  default:
                    violation = "unexpected frame type";
                    break;
                }
                if (violation != nullptr) {
                  metrics_.on_protocol_error();
                  send_malformed(*conn, violation);
                  drop = true;
                }
              });
          if (!ok && !drop) {
            // Framing violation (zero/oversized length): unrecoverable.
            metrics_.on_oversized();
            send_malformed(*conn, "bad frame length");
            drop = true;
          }
          // Predicts decoded before a violation or a hangup in this read
          // are still admitted (after the error frame went out), then the
          // connection drops.
          admit_decoded(received);
          continue;
        }
        if (got == 0) {
          drop = true;  // orderly close
        } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
          drop = true;  // hard error
        }
        break;  // EAGAIN: drained
      }
      if (drop || peer_done) drop_connection(tag);
    }
  }

  for (auto& [tag, conn] : conns) {
    epoll.remove(conn->fd());
    conn->mark_closed();
    metrics_.on_connection_closed();
  }
  conns.clear();
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
      if (outboxes[k].conn == r->conn) return outboxes[k];
    }
    if (used == outboxes.size()) outboxes.emplace_back();
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
      // Same count-before-write rule for the per-model ledger: every entry
      // left in `ready` gets exactly one response from this snapshot, so
      // bump the ledger before anything hits the wire.
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

    // Count every response before any write, so once a client has seen
    // every response, every response is in the counters and a quiescent
    // stats() snapshot balances against the batch histogram (on_batch
    // runs at batch start).
    const auto encoded = std::chrono::steady_clock::now();
    for (const ServeRequest* r : batch) metrics_.on_response(elapsed_us(r->admitted, encoded));
    // Recycle before writing, so a synchronous client's next request can
    // reuse one of these; the outboxes hold the connections.
    pool_.release(batch);
    // One write per connection; a failed write drops every frame it held.
    for (std::size_t k = 0; k < used; ++k) {
      Outbox& box = outboxes[k];
      bool delivered = false;
      if (box.conn != nullptr) {
        metrics_.on_response_write();
        delivered = box.conn->write_frame(box.bytes);
      }
      if (!delivered) metrics_.on_dropped_response(box.frames);
      box.conn.reset();
      box.bytes.clear();
      box.frames = 0;
    }
    used = 0;
  }
}

}  // namespace pnm::serve

#ifndef PNM_SERVE_SERVER_HPP
#define PNM_SERVE_SERVER_HPP

/// \file server.hpp
/// \brief The streaming classification server: inference-as-a-service for
///        trained printed-MLP front designs.
///
/// Topology: `reactors` IO threads share one TCP port via SO_REUSEPORT —
/// each reactor owns a listening socket, its own epoll instance, and
/// every connection the kernel hashed to it, outright: it is the only
/// thread that reads, writes or closes those sockets, so the accept,
/// decode and send paths scale without any shared connection table or
/// per-connection lock.
/// All reactors admit into ONE Batcher drained by `worker_threads`
/// inference workers, and bump ONE ServeMetrics aggregator (per-reactor
/// admission counters let tests assert the global/per-reactor balance).
/// `reactors = 1` degenerates to the classic single-IO-thread server.
/// Neither count wins everywhere: on a 4-vCPU VM a second reactor raised
/// closed-loop throughput ~10% with 16 connections x 4 requests in
/// flight and 3 workers, and cost 7-11% with deeper pipelines (numbers
/// in docs/ARCHITECTURE.md, "Serving layer").
///
/// Models: a ModelRegistry serves any number of named designs behind the
/// port.  Every predict and swap frame names its model; the empty name
/// routes to the default (first-registered) model.  A request naming no
/// registered model is answered with kError{kUnknownModel}, and the
/// connection keeps serving.
///
/// Admission, per socket read: the reactor decodes every predict the read
/// carries into pooled requests (taken from the pool in bulk), looks each
/// model name up once per read, and quantizes the features into the
/// request while the workers are still predicting the previous batch,
/// overlapping decode+staging with the predict pass; then one push admits
/// the whole read.  A request carries its reactor index and connection
/// id, nothing that pins the socket.  Workers normally just gather the
/// staged integer lanes; if a hot-swap changed the model's input_bits in
/// between, the worker re-quantizes from the raw features — bit-exact
/// either way, since the encoding depends only on input_bits.
///
/// Hot-swap: the registry holds each model as a
/// `shared_ptr<const ServedModel>`, and one registry mutex guards every
/// entry.  A swap loads and validates the new design file first, then
/// performs one guarded pointer flip of exactly that entry; workers pin a
/// snapshot per *batch route*, so every in-flight request completes on
/// the design it was scheduled against and every response carries that
/// design's (per-model) version tag — zero requests are dropped, none can
/// be misrouted across the flip, and swapping one model can never disturb
/// another's version sequence.
///
/// Responses: a worker encodes each batch's frames per connection and
/// hands them to the owning reactor's queue (one lock per reactor per
/// batch; it writes the reactor's wake eventfd only when no wake is
/// pending).  The reactor appends them to the connection's output buffer
/// — where admin replies and kError frames go too — and flushes that
/// buffer with one nonblocking send after every read and every wake,
/// continuing on EPOLLOUT while output is pending; while requests it
/// admitted are still in flight, a reactor that may run on more than one
/// CPU polls briefly before it blocks, so a hand-off rarely has to wake a
/// halted CPU.  No thread ever blocks on a peer: a client that stops
/// reading is dropped once its unsent output passes a fixed cap, and
/// responses for a connection that is gone are counted as dropped — the
/// batch, the other clients, and the server are unaffected.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "pnm/core/qmlp.hpp"
#include "pnm/serve/batcher.hpp"
#include "pnm/serve/metrics.hpp"
#include "pnm/serve/protocol.hpp"
#include "pnm/serve/registry.hpp"

namespace pnm::serve {

/// Server configuration.
struct ServeConfig {
  std::uint16_t port = 0;            ///< 0 = ephemeral (see Server::port)
  bool loopback_only = true;         ///< bind 127.0.0.1 (tests/benches)
  std::size_t reactors = 1;          ///< accept+IO loops (SO_REUSEPORT when > 1)
  std::size_t batch_max = 32;        ///< micro-batch size bound
  std::int64_t batch_deadline_us = 200;  ///< micro-batch age bound
  std::size_t worker_threads = 2;    ///< inference workers (shared by reactors)
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// The server.  start() spawns the reactor IO threads and workers; stop()
/// (or the destructor) shuts everything down, draining already-admitted
/// requests.  A server runs once: after stop() it cannot be started again.
class Server {
 public:
  /// Single-model convenience: serves `model` as the default model of a
  /// fresh registry (name "default").
  ///
  /// \param config  serve topology and batching policy.
  /// \param model   initial design (from_float or load_quantized_mlp);
  ///                its `version` is forced to 1 if left 0.
  Server(ServeConfig config, ServedModel model);

  /// Multi-model server over a prepared registry.
  ///
  /// \param config    serve topology and batching policy.
  /// \param registry  at least one registered model; the first-registered
  ///                  entry is the default route (the empty name).
  ///                  Shared: callers may keep swapping through their own
  ///                  reference.
  Server(ServeConfig config, std::shared_ptr<ModelRegistry> registry);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the listening socket(s) and spawns the threads.  After it
  /// returns, port() is final and connects succeed (the kernel backlog
  /// holds early arrivals even before the first epoll dispatch).  A
  /// second call while running does nothing.
  ///
  /// \throws std::runtime_error  when a socket cannot be bound (nothing
  ///         is left running; start() may be retried).
  /// \throws std::logic_error    after stop(): stop() shuts the admission
  ///         queue down for good, so a restarted server would accept
  ///         requests that no worker ever answers.  Build a new Server.
  void start();

  /// Stops accepting, drains admitted requests, joins every thread.
  /// Idempotent; a no-op on a server that never started.
  void stop();

  /// The bound port (valid after start(); all reactors share it).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Loads `path` and atomically flips the named model to it.
  ///
  /// \param name   registered model name ("" = the default model).
  /// \param path   a pnm-model v1 file.
  /// \param error  receives the load/validation error on failure.
  /// \return true on success (the new design is live, and only the named
  ///         model's version moves); false leaves the old design serving.
  bool swap_model(std::string_view name, const std::string& path, std::string* error);

  /// The model registry (shared with the constructing caller).
  [[nodiscard]] const std::shared_ptr<ModelRegistry>& registry() const {
    return registry_;
  }

  /// Metrics snapshot including live queue depth and the per-model
  /// registry stats (name, version, path, ledgers).
  [[nodiscard]] MetricsSnapshot stats() const;

  /// Request-pool size (tests assert the zero-steady-state-allocation
  /// property through this).
  [[nodiscard]] std::size_t request_pool_created() const { return pool_.created(); }

 private:
  void io_loop(std::size_t reactor);
  void worker_loop();
  /// Appends the reply to a kStats or kSwap frame to `out`.  \return
  /// false when the payload is malformed (nothing appended; the caller
  /// closes the connection).
  bool handle_admin_frame(std::vector<std::uint8_t>& out, FrameType type,
                          std::span<const std::uint8_t> payload);
  void close_sockets();

  struct Outbox;  ///< a worker's encoded frames for one connection (server.cpp)
  class Outlet;   ///< one reactor's hand-off queue and wake eventfd (server.cpp)

  ServeConfig config_;
  std::shared_ptr<ModelRegistry> registry_;

  ServeMetrics metrics_;
  RequestPool pool_;
  Batcher batcher_;

  std::vector<int> listen_fds_;  ///< one per reactor (SO_REUSEPORT siblings)
  /// One per reactor; outlive the reactor and worker threads.
  std::vector<std::unique_ptr<Outlet>> outlets_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};  ///< set by the first stop() of a started server
  std::vector<std::thread> io_threads_;
  std::vector<std::thread> workers_;
};

}  // namespace pnm::serve

#endif  // PNM_SERVE_SERVER_HPP

#ifndef PNM_SERVE_METRICS_HPP
#define PNM_SERVE_METRICS_HPP

/// \file metrics.hpp
/// \brief Built-in latency/throughput observability for the serve layer.
///
/// Counters are plain relaxed atomics bumped on the hot path; histograms
/// (batch size, end-to-end request latency) use fixed pre-allocated
/// bucket arrays of atomics, so recording a served request allocates
/// nothing and takes no lock.  The admin kStats endpoint renders a
/// snapshot as JSON; p50/p99 are derived from the latency histogram
/// (log-scale buckets, 4 per octave — ~19% worst-case bucket error,
/// plenty for an operator dashboard; the bench computes exact client-side
/// percentiles separately).

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace pnm::serve {

/// Log-scale histogram: bucket index = 4*floor(log2 v) + next-2-bits.
constexpr std::size_t kLatencyBuckets = 256;

/// Per-model counters for one registry entry (see ModelRegistry::stats).
/// Lives here so the snapshot/JSON layer does not depend on the registry.
struct ModelStats {
  std::string name;
  std::uint32_t version = 0;
  std::string path;
  std::uint64_t responses = 0;
  std::uint64_t swaps_ok = 0;
  std::uint64_t swaps_failed = 0;
};

/// Plain-value snapshot of ServeMetrics (see ServeMetrics::snapshot).
struct MetricsSnapshot {
  std::uint64_t connections_opened = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t requests_total = 0;
  std::uint64_t responses_total = 0;
  std::uint64_t batches_total = 0;
  std::uint64_t response_writes = 0;    ///< reactor flush sends (each carries every frame pending for its connection)
  std::uint64_t protocol_errors = 0;
  std::uint64_t oversized_rejected = 0;
  std::uint64_t truncated_frames = 0;
  std::uint64_t dropped_responses = 0;  ///< frames never sent (client gone, or dropped for not reading)
  std::uint64_t predict_errors = 0;     ///< e.g. feature-width mismatch
  std::uint64_t unknown_model = 0;      ///< requests naming no registered model
  std::uint64_t swaps_ok = 0;
  std::uint64_t swaps_failed = 0;
  std::uint64_t queue_depth = 0;        ///< admission queue, at snapshot time
  std::vector<std::uint64_t> batch_size_hist;  ///< index = batch size (0 unused)
  std::vector<std::uint64_t> latency_hist;     ///< log-scale buckets (us)
  std::vector<std::uint64_t> requests_by_reactor;  ///< admissions per reactor
  std::vector<ModelStats> models;  ///< registry entries (filled by the Server)

  /// Latency percentile in microseconds estimated from the histogram.
  /// \param p  percentile in [0, 100].
  /// \return the estimate; 0 when no latency was recorded.
  [[nodiscard]] double latency_percentile_us(double p) const;

  /// Mean recorded batch size (0 when no batch completed).
  [[nodiscard]] double mean_batch_size() const;

  /// Renders the snapshot as a JSON object (the kStats payload).
  [[nodiscard]] std::string to_json() const;
};

/// Shared mutable counters (one instance per Server).  All methods are
/// thread-safe and lock-free.
class ServeMetrics {
 public:
  /// \param batch_max  sizes the batch-size histogram (indices 0..batch_max).
  /// \param reactors   sizes the per-reactor admission counters (>= 1).
  explicit ServeMetrics(std::size_t batch_max, std::size_t reactors = 1);

  void on_connection_opened() { connections_opened_.fetch_add(1, std::memory_order_relaxed); }
  void on_connection_closed() { connections_closed_.fetch_add(1, std::memory_order_relaxed); }
  /// Counts `n` admitted requests, attributed to the admitting reactor —
  /// sum(requests_by_reactor) == requests_total is a checked invariant.
  void on_requests(std::size_t reactor, std::uint64_t n) {
    if (n == 0) return;
    requests_total_.fetch_add(n, std::memory_order_relaxed);
    if (reactor < requests_by_reactor_.size()) {
      requests_by_reactor_[reactor].fetch_add(n, std::memory_order_relaxed);
    }
  }
  void on_protocol_error() { protocol_errors_.fetch_add(1, std::memory_order_relaxed); }
  void on_oversized() { oversized_rejected_.fetch_add(1, std::memory_order_relaxed); }
  void on_truncated_frame() { truncated_frames_.fetch_add(1, std::memory_order_relaxed); }
  /// Counts `frames` responses that will never be sent: their connection
  /// closed (or is closing after a protocol violation), or was dropped
  /// for leaving too much output unread, before the kernel took them.
  void on_dropped_response(std::uint64_t frames) {
    dropped_responses_.fetch_add(frames, std::memory_order_relaxed);
  }
  /// Counts one reactor flush send; bumped before the send, like
  /// on_response, so a client that saw a response implies it is counted.
  void on_response_write() { response_writes_.fetch_add(1, std::memory_order_relaxed); }
  void on_predict_error() { predict_errors_.fetch_add(1, std::memory_order_relaxed); }
  /// Counts a request rejected at admission for naming no registered
  /// model.  Deliberately NOT part of requests_total: the request never
  /// entered the queue, so the responses+errors == requests identity
  /// stays exact.
  void on_unknown_model() { unknown_model_.fetch_add(1, std::memory_order_relaxed); }
  void on_swap(bool ok) {
    (ok ? swaps_ok_ : swaps_failed_).fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one completed batch of `batch_size` responses.
  void on_batch(std::size_t batch_size);

  /// Records one served response with its end-to-end latency (admission
  /// to the end of its batch's encode; callers count before the socket
  /// write so a client that saw every response implies every response is
  /// counted), in microseconds.
  void on_response(std::uint64_t latency_us);

  /// Point-in-time copy of every counter and histogram.  `models` is left
  /// empty — the Server fills it from the registry, which owns those
  /// counters.
  ///
  /// \param queue_depth  current admission-queue depth (sampled by the
  ///                     caller, which owns the queue).
  /// \return the snapshot.
  [[nodiscard]] MetricsSnapshot snapshot(std::uint64_t queue_depth) const;

 private:
  std::atomic<std::uint64_t> connections_opened_{0};
  std::atomic<std::uint64_t> connections_closed_{0};
  std::atomic<std::uint64_t> requests_total_{0};
  std::atomic<std::uint64_t> responses_total_{0};
  std::atomic<std::uint64_t> batches_total_{0};
  std::atomic<std::uint64_t> response_writes_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> oversized_rejected_{0};
  std::atomic<std::uint64_t> truncated_frames_{0};
  std::atomic<std::uint64_t> dropped_responses_{0};
  std::atomic<std::uint64_t> predict_errors_{0};
  std::atomic<std::uint64_t> unknown_model_{0};
  std::atomic<std::uint64_t> swaps_ok_{0};
  std::atomic<std::uint64_t> swaps_failed_{0};
  std::vector<std::atomic<std::uint64_t>> batch_size_hist_;
  std::vector<std::atomic<std::uint64_t>> requests_by_reactor_;
  std::array<std::atomic<std::uint64_t>, kLatencyBuckets> latency_hist_{};
};

/// The log-scale bucket index for a latency of `us` microseconds.
std::size_t latency_bucket(std::uint64_t us);

/// Upper bound (inclusive, in us) of latency bucket `i` — used by the
/// percentile estimate and by tests.
std::uint64_t latency_bucket_upper_us(std::size_t i);

}  // namespace pnm::serve

#endif  // PNM_SERVE_METRICS_HPP

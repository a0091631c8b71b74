#ifndef PNM_SERVE_BATCHER_HPP
#define PNM_SERVE_BATCHER_HPP

/// \file batcher.hpp
/// \brief Admission queue with micro-batch coalescing + the request pool.
///
/// The serving model is classic micro-batching: the IO thread admits
/// decoded requests into one queue; worker threads drain it in batches
/// bounded two ways —
///
///   * size: a batch never exceeds `batch_max` requests;
///   * deadline: once a batch has at least one request, it departs no
///     later than `deadline_us` after the *oldest* member was admitted.
///
/// Under light load a lone request therefore waits at most one deadline
/// (bounded tail latency); under heavy load batches fill instantly and
/// the deadline never engages (maximum throughput).  Every hand-over
/// moves requests in bulk: the IO thread takes recycled requests from the
/// pool into a spare list of its own (one lock per refill), admits
/// everything one socket read decoded with one push (one lock, one
/// wake-up), and a worker recycles its whole batch with one release (one
/// lock).  The queue is a growable ring buffer of request pointers and
/// the requests themselves are pooled and recycled, so steady-state
/// admission performs zero allocations — the only allocations happen
/// while the pool or ring is still growing toward the peak in-flight
/// count.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace pnm::serve {

/// One admitted classification request (pooled; see RequestPool).
struct ServeRequest {
  // Response route: the admitting reactor and its id for the connection.
  // A worker hands the response to that reactor, which alone touches the
  // socket (and answers nobody if the connection is gone by then).
  std::uint32_t reactor = 0;
  std::uint64_t conn = 0;
  std::uint32_t id = 0;              ///< client-chosen echo tag
  std::string model_name;            ///< registry route; "" = default model
  std::vector<double> features;      ///< [0,1]-scaled inputs (capacity reused)
  // Pipelined handoff: the admitting reactor quantizes the features while
  // the predict pass of the previous batch is still running, so the worker
  // normally just gathers `xq` into its block buffer.  `staged_bits`
  // records the input_bits the staging used; a worker whose pinned model
  // disagrees (a swap landed in between) re-quantizes from `features` —
  // quantization depends only on input_bits, so the result is bit-exact
  // either way.  -1 = not staged.
  std::vector<std::int64_t> xq;      ///< pre-quantized features (capacity reused)
  int staged_bits = -1;
  std::chrono::steady_clock::time_point admitted{};
};

/// Free-list recycler for ServeRequest objects.  Thread-safe.
class RequestPool {
 public:
  /// Recycled requests one acquire() moves at most: one lock covers up
  /// to this many admissions.
  static constexpr std::size_t kRefill = 256;

  /// Moves up to kRefill recycled requests into `spare` under one lock,
  /// or creates exactly one when none is recycled: the pool grows only
  /// when a caller has nothing left to use, so it never holds more
  /// requests than were ever in use or in spare lists at once.  Recycled
  /// requests keep their buffers' capacity.
  ///
  /// \param spare  the caller's spare list (appended to).
  void acquire(std::vector<ServeRequest*>& spare);

  /// Returns requests to the pool under one lock.  A worker releases its
  /// whole batch before handing the responses on, so a synchronous
  /// client's next request can reuse one of them.
  ///
  /// \param requests  requests no thread uses any more; may be empty.
  void release(std::span<ServeRequest* const> requests);

  /// Total requests ever created (== peak concurrent demand; stable once
  /// the pool has warmed up — asserted by tests as the zero-steady-state-
  /// allocation property).
  [[nodiscard]] std::size_t created() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ServeRequest>> all_;
  std::vector<ServeRequest*> free_;
};

/// The admission queue.  push() never blocks (the ring grows); pop_batch()
/// blocks until it can hand out a batch or the batcher is shut down.
class Batcher {
 public:
  /// \param batch_max    hard cap on one batch's request count (>= 1).
  /// \param deadline_us  max time a nonempty batch may wait for more
  ///                     requests, counted from its oldest member's
  ///                     admission (0 = depart immediately).
  Batcher(std::size_t batch_max, std::int64_t deadline_us);

  /// Admits `requests` in order under one lock, growing the ring at most
  /// once, and wakes one worker.  An empty span changes nothing.
  ///
  /// \param requests  requests to queue (the IO thread passes everything
  ///                  one socket read decoded).
  /// \param admitted  stamped into every request's `admitted`; the
  ///                  batch deadline counts from it.  The IO thread reads
  ///                  the clock once when the read returns, so the
  ///                  server latency still covers decoding and staging.
  void push(std::span<ServeRequest* const> requests,
            std::chrono::steady_clock::time_point admitted);

  /// Blocks for the next micro-batch: waits for a first request, then
  /// keeps coalescing until the batch is full or the oldest member's
  /// deadline expires.  `out` is cleared and filled (capacity reused).
  ///
  /// \param out  receives up to batch_max requests, admission order.
  /// \return false when the batcher was shut down and the queue is empty
  ///         (workers exit); true otherwise (out is nonempty).
  bool pop_batch(std::vector<ServeRequest*>& out);

  /// Wakes every waiting worker; subsequent pop_batch calls drain the
  /// remaining queue and then return false.
  void shutdown();

  /// Current queued (not yet popped) request count.
  [[nodiscard]] std::size_t depth() const;

 private:
  [[nodiscard]] std::size_t size_locked() const { return tail_ - head_; }
  ServeRequest* pop_front_locked();

  const std::size_t batch_max_;
  const std::chrono::microseconds deadline_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Growable power-of-two ring: index i lives at ring_[i & (cap-1)].
  std::vector<ServeRequest*> ring_;
  std::size_t head_ = 0;  ///< absolute index of the oldest element
  std::size_t tail_ = 0;  ///< absolute index one past the newest
  bool shutdown_ = false;
};

}  // namespace pnm::serve

#endif  // PNM_SERVE_BATCHER_HPP

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

/// \file trace.hpp
/// \brief In-memory span recorder for the traced benchmark run.
///
/// Spans are recorded from the benchmark's own files around the calls it
/// makes into the library's public functions (the library itself carries
/// no tracing).  Each span has a name, start and end, the span that caused
/// it, and the genome or request it belongs to.  Spans stay in memory and
/// are written once, as Chrome trace-event JSON, when the run ends.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string subject;  ///< genome key or request id ("" for neither)
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint32_t tid = 0;
  };

  Tracer();

  /// Nanoseconds since the tracer was created.
  [[nodiscard]] std::int64_t now_ns() const;
  /// The same clock for a time point taken elsewhere.
  [[nodiscard]] std::int64_t at_ns(std::chrono::steady_clock::time_point tp) const;
  [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(Span span);

  /// Copy of every span recorded so far.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Parent for spans opened on pool worker threads, which have no
  /// enclosing span of their own: the batch span that fanned them out.
  std::atomic<std::uint64_t> fan_out_parent{0};

  /// Self time of every span (its duration minus the part of it covered
  /// by its children), in the order of `spans`.
  static std::vector<std::int64_t> self_ns(const std::vector<Span>& spans);

  /// Writes every span as Chrome trace-event JSON ("X" events with the
  /// id, parent, subject and self time in args).
  bool write_chrome_json(const std::string& path) const;

 private:
  std::int64_t origin_ns_;
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records one span for its lifetime; a no-op when the tracer is null.
/// While alive it is the parent of spans opened on the same thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::string subject = {},
             bool worker_thread = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Tracer::Span span_;
  std::uint64_t saved_current_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

/// \file bench.hpp
/// \brief Shared pieces of the benchmark program: CLI options, the result
///        record every workload fills, and small statistics helpers.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;      ///< measurement window of one run
  bool trace = false;         ///< traced run: per-layer metrics instead of end-to-end
  std::string work_dir;       ///< scratch space (stores, trace dump), inside the checkout
  std::string trace_out;      ///< Chrome trace-event dump path (traced runs)
};

/// What one run reports.  Metrics are kept in insertion order; main()
/// prints the end-to-end or the per-layer subset depending on --trace.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> gate_failures;
  /// Identity of the generated inputs (genomes searched, request order);
  /// the self-test checks that two seeds give two different values.
  std::string inputs_fingerprint;

  void set(const std::string& name, double value) {
    for (auto& [n, v] : metrics) {
      if (n == name) {
        v = value;
        return;
      }
    }
    metrics.emplace_back(name, value);
  }
  /// Records a correctness gate; a failed gate marks the run incorrect.
  void gate(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    gate_failures.push_back(what);
  }
};

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

/// Runs one set-up and appends its duration to `samples`.  Workloads set
/// up once per repetition (GA) or round (serving), so the samples spread
/// over the whole measurement window, and their median is reported: a
/// burst of set-ups at process start would see only one moment of a
/// drifting host.
template <typename Fn>
auto timed_setup(std::vector<double>& samples, Fn&& setup) {
  const Clock::time_point start = Clock::now();
  auto result = setup();
  samples.push_back(seconds_since(start));
  return result;
}

/// Peak resident set of this process in MiB.
double peak_rss_mib();

/// Workload entry points (ga.cpp, serve.cpp).  Each fills every metric the
/// benchmark declares, with 0 for layers the workload does not exercise.
void run_ga_workload(const Options& options, Tracer* tracer, Outcome& out);
void run_serve_workload(const Options& options, Tracer* tracer, Outcome& out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP

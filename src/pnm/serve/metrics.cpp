#include "pnm/serve/metrics.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "pnm/util/fileio.hpp"

namespace pnm::serve {

std::size_t latency_bucket(std::uint64_t us) {
  if (us < 4) return static_cast<std::size_t>(us);  // exact tiny buckets
  // 4 sub-buckets per octave: the octave from bit_width, the sub-bucket
  // from the two bits below the leading one.
  const int w = static_cast<int>(std::bit_width(us));  // >= 3 here
  const std::uint64_t sub = (us >> (w - 3)) & 0x3;
  const std::size_t idx = static_cast<std::size_t>(w - 2) * 4 + static_cast<std::size_t>(sub);
  return std::min(idx, kLatencyBuckets - 1);
}

std::uint64_t latency_bucket_upper_us(std::size_t i) {
  if (i < 4) return i;
  const std::size_t w = i / 4 + 2;
  const std::uint64_t sub = i % 4;
  // Largest value whose (octave, sub-bucket) is (w, sub): set the two
  // sub-bucket bits and every bit below them.
  const std::uint64_t base = (std::uint64_t{0b100} | sub) << (w - 3);
  const std::uint64_t fill = (w > 3) ? ((std::uint64_t{1} << (w - 3)) - 1) : 0;
  return base | fill;
}

double MetricsSnapshot::latency_percentile_us(double p) const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : latency_hist) total += c;
  if (total == 0) return 0.0;
  const double target = (std::clamp(p, 0.0, 100.0) / 100.0) * static_cast<double>(total);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < latency_hist.size(); ++i) {
    seen += latency_hist[i];
    if (static_cast<double>(seen) >= target) {
      return static_cast<double>(latency_bucket_upper_us(i));
    }
  }
  return static_cast<double>(latency_bucket_upper_us(latency_hist.size() - 1));
}

double MetricsSnapshot::mean_batch_size() const {
  std::uint64_t batches = 0;
  std::uint64_t requests = 0;
  for (std::size_t s = 0; s < batch_size_hist.size(); ++s) {
    batches += batch_size_hist[s];
    requests += batch_size_hist[s] * s;
  }
  return batches == 0 ? 0.0 : static_cast<double>(requests) / static_cast<double>(batches);
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"connections_opened\": " << connections_opened << ",\n";
  out << "  \"connections_closed\": " << connections_closed << ",\n";
  out << "  \"accept_failures\": " << accept_failures << ",\n";
  out << "  \"requests_total\": " << requests_total << ",\n";
  out << "  \"responses_total\": " << responses_total << ",\n";
  out << "  \"batches_total\": " << batches_total << ",\n";
  out << "  \"response_writes\": " << response_writes << ",\n";
  out << "  \"queue_depth\": " << queue_depth << ",\n";
  out << "  \"protocol_errors\": " << protocol_errors << ",\n";
  out << "  \"oversized_rejected\": " << oversized_rejected << ",\n";
  out << "  \"truncated_frames\": " << truncated_frames << ",\n";
  out << "  \"dropped_responses\": " << dropped_responses << ",\n";
  out << "  \"predict_errors\": " << predict_errors << ",\n";
  out << "  \"unknown_model\": " << unknown_model << ",\n";
  out << "  \"swaps_ok\": " << swaps_ok << ",\n";
  out << "  \"swaps_failed\": " << swaps_failed << ",\n";
  out << "  \"reactors\": " << requests_by_reactor.size() << ",\n";
  out << "  \"requests_by_reactor\": [";
  for (std::size_t r = 0; r < requests_by_reactor.size(); ++r) {
    out << (r == 0 ? "" : ", ") << requests_by_reactor[r];
  }
  out << "],\n";
  out << "  \"mean_batch_size\": " << format_double_roundtrip(mean_batch_size()) << ",\n";
  out << "  \"latency_p50_us\": " << format_double_roundtrip(latency_percentile_us(50)) << ",\n";
  out << "  \"latency_p99_us\": " << format_double_roundtrip(latency_percentile_us(99)) << ",\n";
  out << "  \"batch_size_hist\": [";
  for (std::size_t s = 0; s < batch_size_hist.size(); ++s) {
    out << (s == 0 ? "" : ", ") << batch_size_hist[s];
  }
  out << "],\n";
  // One object per line: CI soak jobs grep a single model's line for its
  // name + version, which a pretty-printed nesting would break.
  out << "  \"models\": [";
  for (std::size_t m = 0; m < models.size(); ++m) {
    out << (m == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(models[m].name) << "\", \"version\": "
        << models[m].version << ", \"path\": \"" << json_escape(models[m].path)
        << "\", \"responses\": " << models[m].responses << ", \"swaps_ok\": "
        << models[m].swaps_ok << ", \"swaps_failed\": " << models[m].swaps_failed << "}";
  }
  out << (models.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return out.str();
}

ServeMetrics::ServeMetrics(std::size_t batch_max, std::size_t reactors)
    : batch_size_hist_(batch_max + 1),
      requests_by_reactor_(reactors == 0 ? 1 : reactors) {
  for (auto& b : batch_size_hist_) b.store(0, std::memory_order_relaxed);
  for (auto& r : requests_by_reactor_) r.store(0, std::memory_order_relaxed);
}

void ServeMetrics::on_batch(std::size_t batch_size) {
  batches_total_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t idx = std::min(batch_size, batch_size_hist_.size() - 1);
  batch_size_hist_[idx].fetch_add(1, std::memory_order_relaxed);
}

void ServeMetrics::on_response(std::uint64_t latency_us) {
  responses_total_.fetch_add(1, std::memory_order_relaxed);
  latency_hist_[latency_bucket(latency_us)].fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot ServeMetrics::snapshot(std::uint64_t queue_depth) const {
  MetricsSnapshot s;
  s.connections_opened = connections_opened_.load(std::memory_order_relaxed);
  s.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  s.accept_failures = accept_failures_.load(std::memory_order_relaxed);
  s.requests_total = requests_total_.load(std::memory_order_relaxed);
  s.responses_total = responses_total_.load(std::memory_order_relaxed);
  s.batches_total = batches_total_.load(std::memory_order_relaxed);
  s.response_writes = response_writes_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.oversized_rejected = oversized_rejected_.load(std::memory_order_relaxed);
  s.truncated_frames = truncated_frames_.load(std::memory_order_relaxed);
  s.dropped_responses = dropped_responses_.load(std::memory_order_relaxed);
  s.predict_errors = predict_errors_.load(std::memory_order_relaxed);
  s.unknown_model = unknown_model_.load(std::memory_order_relaxed);
  s.swaps_ok = swaps_ok_.load(std::memory_order_relaxed);
  s.swaps_failed = swaps_failed_.load(std::memory_order_relaxed);
  s.queue_depth = queue_depth;
  s.batch_size_hist.resize(batch_size_hist_.size());
  for (std::size_t i = 0; i < batch_size_hist_.size(); ++i) {
    s.batch_size_hist[i] = batch_size_hist_[i].load(std::memory_order_relaxed);
  }
  s.latency_hist.resize(latency_hist_.size());
  for (std::size_t i = 0; i < latency_hist_.size(); ++i) {
    s.latency_hist[i] = latency_hist_[i].load(std::memory_order_relaxed);
  }
  s.requests_by_reactor.resize(requests_by_reactor_.size());
  for (std::size_t i = 0; i < requests_by_reactor_.size(); ++i) {
    s.requests_by_reactor[i] = requests_by_reactor_[i].load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace pnm::serve

#include "pnm/serve/client.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <unistd.h>
#include <utility>

#include "pnm/core/quantize.hpp"
#include "pnm/util/socket.hpp"

namespace pnm::serve {

ServeClient::~ServeClient() { close(); }

ServeClient::ServeClient(ServeClient&& other) noexcept
    : fd_(other.fd_), tx_(std::move(other.tx_)) {
  other.fd_ = -1;
}

ServeClient& ServeClient::operator=(ServeClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    tx_ = std::move(other.tx_);
    other.fd_ = -1;
  }
  return *this;
}

bool ServeClient::connect(const std::string& host, std::uint16_t port, int max_attempts) {
  close();
  for (int attempt = 0; attempt < std::max(1, max_attempts); ++attempt) {
    fd_ = tcp_connect(host, port);
    if (fd_ >= 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ServeClient::send_predict(std::uint32_t id, std::span<const double> features,
                               std::string_view model_name) {
  if (fd_ < 0) return false;
  tx_.clear();
  encode_predict(tx_, id, features, model_name);
  return send_all(fd_, tx_.data(), tx_.size());
}

bool ServeClient::send_raw(const void* data, std::size_t n) {
  if (fd_ < 0) return false;
  return send_all(fd_, data, n);
}

bool ServeClient::read_frame(ClientFrame& out, int timeout_ms) {
  if (fd_ < 0) return false;
  std::uint8_t len_bytes[4];
  if (!recv_exact(fd_, len_bytes, 4, timeout_ms)) return false;
  const std::uint32_t len = read_u32(len_bytes);
  if (len == 0 || len > kDefaultMaxFrameBytes) return false;
  std::vector<std::uint8_t> body(len);
  if (!recv_exact(fd_, body.data(), len, timeout_ms)) return false;
  out.type = static_cast<FrameType>(body[0]);
  out.payload.assign(body.begin() + 1, body.end());
  return true;
}

bool ServeClient::read_predict(PredictResponse& out, int timeout_ms) {
  ClientFrame frame;
  if (!read_frame(frame, timeout_ms)) return false;
  if (frame.type != FrameType::kPredictResp) return false;
  return decode_predict_resp(frame.payload, out);
}

bool ServeClient::stats(std::string& json_out, int timeout_ms) {
  if (fd_ < 0) return false;
  tx_.clear();
  encode_stats_req(tx_);
  if (!send_all(fd_, tx_.data(), tx_.size())) return false;
  ClientFrame frame;
  if (!read_frame(frame, timeout_ms)) return false;
  if (frame.type != FrameType::kStatsResp) return false;
  json_out.assign(reinterpret_cast<const char*>(frame.payload.data()), frame.payload.size());
  return true;
}

bool ServeClient::swap(std::string_view model_name, const std::string& model_path,
                       std::string& message_out, int timeout_ms) {
  if (fd_ < 0) return false;
  tx_.clear();
  encode_swap_req(tx_, model_name, model_path);
  if (!send_all(fd_, tx_.data(), tx_.size())) return false;
  ClientFrame frame;
  if (!read_frame(frame, timeout_ms)) return false;
  if (frame.type != FrameType::kSwapResp) return false;
  bool ok = false;
  if (!decode_swap_resp(frame.payload, ok, message_out)) return false;
  return ok;
}

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count();
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

LoadGenReport run_load(const LoadGenConfig& config) {
  if (config.samples == nullptr || config.samples->empty()) {
    throw std::invalid_argument("run_load: samples must be non-empty");
  }
  if (config.total_requests == 0) {
    throw std::invalid_argument("run_load: total_requests must be >= 1");
  }
  const std::vector<std::vector<double>>& samples = *config.samples;

  ServeClient client;
  if (!client.connect(config.host, config.port)) {
    throw std::runtime_error("run_load: cannot connect to server");
  }
  ServeClient admin;
  if (!config.swaps.empty() && !admin.connect(config.host, config.port)) {
    throw std::runtime_error("run_load: cannot open admin connection");
  }

  LoadGenReport report;
  const std::size_t total = config.total_requests;
  // Send timestamps, ns from `origin`, indexed by request id.  Written by
  // the sender before the frame leaves, read by the receiver after the
  // response arrives; atomics make that exchange well-defined.
  std::vector<std::atomic<std::int64_t>> send_ns(total);
  std::atomic<std::size_t> sent_ok{0};
  std::atomic<std::size_t> send_failures{0};
  std::atomic<bool> sender_done{false};

  const Clock::time_point origin = Clock::now();
  const double rate = config.rate;

  std::thread sender([&] {
    for (std::size_t k = 0; k < total; ++k) {
      if (rate > 0.0) {
        const auto depart =
            origin + std::chrono::nanoseconds(
                         static_cast<std::int64_t>(1e9 * static_cast<double>(k) / rate));
        std::this_thread::sleep_until(depart);
      }
      const std::vector<double>& sample = samples[k % samples.size()];
      send_ns[k].store(ns_since(origin), std::memory_order_release);
      if (client.send_predict(static_cast<std::uint32_t>(k), sample, config.model_name)) {
        sent_ok.fetch_add(1, std::memory_order_release);
      } else {
        send_failures.fetch_add(1, std::memory_order_release);
      }
    }
    sender_done.store(true, std::memory_order_release);
  });

  // Receiver: verify each response against the offline prediction of the
  // design version that served it.  Expected classes are memoized per
  // (version, sample) pair, so verification costs one inference per pair,
  // not per response.
  std::vector<double> latencies_us;
  latencies_us.reserve(total);
  std::map<std::pair<std::uint32_t, std::size_t>, std::uint32_t> expected_cache;
  InferScratch scratch;

  auto next_swap = config.swaps.begin();
  PredictResponse resp;
  while (true) {
    const std::size_t done = report.received;
    if (sender_done.load(std::memory_order_acquire) &&
        done >= sent_ok.load(std::memory_order_acquire)) {
      break;
    }
    if (!client.read_predict(resp, config.response_timeout_ms)) break;
    const std::int64_t arrival = ns_since(origin);
    if (resp.id < total) {
      const std::int64_t sent_at = send_ns[resp.id].load(std::memory_order_acquire);
      latencies_us.push_back(static_cast<double>(arrival - sent_at) / 1000.0);
    }
    ++report.received;
    ++report.responses_by_version[resp.model_version];

    if (!config.verify.empty()) {
      const auto ref = config.verify.find(resp.model_version);
      if (ref == config.verify.end()) {
        ++report.unknown_version;
      } else {
        const std::size_t sample_idx = resp.id % samples.size();
        const auto key = std::make_pair(resp.model_version, sample_idx);
        auto cached = expected_cache.find(key);
        if (cached == expected_cache.end()) {
          const QuantizedMlp& mlp = *ref->second;
          quantize_input_into(samples[sample_idx], mlp.input_bits(), scratch.xq);
          const std::uint32_t expect =
              static_cast<std::uint32_t>(mlp.predict_quantized_into(scratch.xq, scratch));
          cached = expected_cache.emplace(key, expect).first;
        }
        if (resp.predicted_class != cached->second) ++report.mismatches;
      }
    }

    while (next_swap != config.swaps.end() && report.received >= next_swap->first) {
      std::string message;
      if (!admin.swap(config.model_name, next_swap->second, message)) ++report.swap_failures;
      ++next_swap;
    }
  }

  sender.join();
  const double duration_s = static_cast<double>(ns_since(origin)) / 1e9;

  report.sent = sent_ok.load() + send_failures.load();
  report.send_failures = send_failures.load();
  report.duration_s = duration_s;
  report.offered_rps =
      rate > 0.0 ? rate : static_cast<double>(report.sent) / std::max(duration_s, 1e-9);
  report.achieved_rps = static_cast<double>(report.received) / std::max(duration_s, 1e-9);
  if (!latencies_us.empty()) {
    double sum = 0.0;
    for (const double v : latencies_us) sum += v;
    report.mean_us = sum / static_cast<double>(latencies_us.size());
    std::sort(latencies_us.begin(), latencies_us.end());
    report.p50_us = percentile_sorted(latencies_us, 50.0);
    report.p99_us = percentile_sorted(latencies_us, 99.0);
  }
  return report;
}

}  // namespace pnm::serve

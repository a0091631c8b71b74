#ifndef PNM_SERVE_CLIENT_HPP
#define PNM_SERVE_CLIENT_HPP

/// \file client.hpp
/// \brief Blocking serve-protocol client + open-loop load generator.
///
/// ServeClient is the straightforward synchronous counterpart of the
/// server: one TCP connection, framed sends, blocking framed reads with a
/// timeout.  It is what the CLI, the tests, and the load generator build
/// on.
///
/// LoadGen drives a server open-loop — requests depart on a fixed
/// schedule regardless of response progress, so queueing delay shows up
/// in the measured latency instead of silently throttling the offered
/// rate (closed-loop generators understate tail latency).  Every response
/// is verified bit-exactly: its version tag selects the reference design
/// from `verify`, the request's features are re-predicted offline, and
/// any class mismatch is counted.  That check is what turns "hot-swap
/// under load" from a vibe into a machine-checked property: a dropped,
/// duplicated, or misrouted response is impossible to miss.

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pnm/core/qmlp.hpp"
#include "pnm/serve/protocol.hpp"

namespace pnm::serve {

/// One received frame (type + payload bytes after the type tag).
struct ClientFrame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;
};

/// Blocking single-connection protocol client.
class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ServeClient(ServeClient&& other) noexcept;
  ServeClient& operator=(ServeClient&& other) noexcept;

  /// Connects, retrying briefly (covers a server that is still binding).
  /// \return true when connected.
  bool connect(const std::string& host, std::uint16_t port, int max_attempts = 50);

  [[nodiscard]] bool connected() const { return fd_ >= 0; }
  void close();

  /// Sends one kPredict frame routed to `model_name` ("" = the default
  /// model).  \return false on a send failure.
  bool send_predict(std::uint32_t id, std::span<const double> features,
                    std::string_view model_name = {});

  /// Sends raw bytes verbatim — tests use this to produce truncated,
  /// oversized, or garbage frames.
  bool send_raw(const void* data, std::size_t n);

  /// Blocking read of the next complete frame.
  /// \param out         receives the frame.
  /// \param timeout_ms  per-read timeout (<= 0 waits indefinitely).
  /// \return false on timeout, disconnect, or framing violation.
  bool read_frame(ClientFrame& out, int timeout_ms = 5000);

  /// Reads the next frame and decodes it as kPredictResp.
  /// \return false when the next frame is not a well-formed kPredictResp.
  bool read_predict(PredictResponse& out, int timeout_ms = 5000);

  /// Round-trips a kStats request.  \return false on failure.
  bool stats(std::string& json_out, int timeout_ms = 5000);

  /// Round-trips a kSwap request targeting `model_name` ("" = the default
  /// model).
  /// \param message_out  the server's response text (new version or error).
  /// \return true when the server accepted the swap.
  bool swap(std::string_view model_name, const std::string& model_path,
            std::string& message_out, int timeout_ms = 10000);

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> tx_;
};

/// Open-loop load-generator configuration.
struct LoadGenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double rate = 1000.0;              ///< offered requests/second (<=0: max speed)
  std::size_t total_requests = 1000;
  /// Registry route of every request and every `swaps` entry ("" = the
  /// default model) — so several loadgens can exercise different models
  /// (and swap them independently) on one server, each verifying its own
  /// model's version sequence.
  std::string model_name;
  /// Sample features, cycled by request index.  Must be non-empty and
  /// outlive run().
  const std::vector<std::vector<double>>* samples = nullptr;
  /// Hot-swaps to issue while the load runs: after `first` responses have
  /// arrived, swap the server to model file `second` (admin connection).
  std::map<std::size_t, std::string> swaps;
  /// Bit-exactness references: model version -> the design that version
  /// serves.  A response whose version is missing here counts as
  /// unknown_version; a response whose class disagrees with the offline
  /// prediction counts as a mismatch.  Empty map disables verification.
  std::map<std::uint32_t, const QuantizedMlp*> verify;
  int response_timeout_ms = 10000;   ///< receiver patience per frame
};

/// What an open-loop run measured.
struct LoadGenReport {
  std::size_t sent = 0;
  std::size_t received = 0;
  std::size_t send_failures = 0;
  std::size_t mismatches = 0;        ///< class != offline prediction
  std::size_t unknown_version = 0;   ///< version absent from verify map
  std::size_t swap_failures = 0;
  double offered_rps = 0.0;
  double achieved_rps = 0.0;         ///< received / duration
  double duration_s = 0.0;
  double p50_us = 0.0;               ///< exact, client-side send-to-response
  double p99_us = 0.0;
  double mean_us = 0.0;
  std::map<std::uint32_t, std::size_t> responses_by_version;

  /// Every request answered, none wrong, every swap accepted.
  [[nodiscard]] bool ok() const {
    return received == sent && sent > 0 && send_failures == 0 && mismatches == 0 &&
           unknown_version == 0 && swap_failures == 0;
  }
};

/// Runs one open-loop measurement: a sender thread paces kPredict frames
/// at `config.rate` while the calling thread receives, verifies, and
/// timestamps every response (latency = send to response arrival).
///
/// \param config  see LoadGenConfig; `samples` must be non-empty.
/// \return the report.
/// \throws std::invalid_argument  on an unusable config.
/// \throws std::runtime_error     when the initial connect fails.
LoadGenReport run_load(const LoadGenConfig& config);

}  // namespace pnm::serve

#endif  // PNM_SERVE_CLIENT_HPP

#ifndef PNM_TESTS_SERVE_TEST_UTIL_HPP
#define PNM_TESTS_SERVE_TEST_UTIL_HPP

/// \file serve_test_util.hpp
/// \brief Fixtures the serve test suites share: small 6-5-3 designs,
///        random [0,1] samples, the offline reference prediction, and
///        helpers that wait on server counters or read a typed error.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "pnm/core/quantize.hpp"
#include "pnm/serve/client.hpp"
#include "pnm/serve/server.hpp"
#include "pnm/util/build_info.hpp"
#include "pnm/util/rng.hpp"

namespace pnm::serve {

/// A 6-5-3 design (5-bit weights, 4-bit inputs) seeded by `seed`.
inline QuantizedMlp make_model(std::uint64_t seed) {
  Rng rng(seed);
  const Mlp net({6, 5, 3}, rng);
  return QuantizedMlp::from_float(net, QuantSpec::uniform(2, 5, 4));
}

inline std::vector<std::vector<double>> make_samples(std::size_t n, std::size_t n_features,
                                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> samples(n);
  for (auto& s : samples) {
    s.resize(n_features);
    for (auto& v : s) v = rng.uniform();
  }
  return samples;
}

inline std::size_t offline_predict(const QuantizedMlp& model, const std::vector<double>& x,
                                   InferScratch& scratch) {
  std::vector<std::int64_t> xq;
  quantize_input_into(x, model.input_bits(), xq);
  return model.predict_quantized_into(xq, scratch);
}

/// A registry serving make_model(seed_a) as "alpha" (the default model)
/// and make_model(seed_b) as "beta".
inline std::shared_ptr<ModelRegistry> make_registry_ab(std::uint64_t seed_a,
                                                       std::uint64_t seed_b) {
  auto registry = std::make_shared<ModelRegistry>();
  EXPECT_TRUE(registry->register_model("alpha", {make_model(seed_a), 0, "", ""}, nullptr));
  EXPECT_TRUE(registry->register_model("beta", {make_model(seed_b), 0, "", ""}, nullptr));
  return registry;
}

/// Polls server stats until `pred` holds or ~2s elapse (counters are
/// bumped by the IO/worker threads, so tests wait instead of racing).
/// Sanitizer builds get proportionally more patience.
template <typename Pred>
bool wait_for_stats(const Server& server, Pred pred) {
  for (int i = 0; i < 200 * pnm::build_info::timing_multiplier(); ++i) {
    if (pred(server.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// The code of the kError frame `client` reads next; std::nullopt when
/// the next frame is missing or is not a well-formed kError.
inline std::optional<ErrorCode> read_error(ServeClient& client, std::string* message = nullptr) {
  ClientFrame frame;
  ErrorCode code{};
  std::string text;
  if (!client.read_frame(frame) || frame.type != FrameType::kError ||
      !decode_error(frame.payload, code, text)) {
    return std::nullopt;
  }
  if (message != nullptr) *message = text;
  return code;
}

}  // namespace pnm::serve

#endif  // PNM_TESTS_SERVE_TEST_UTIL_HPP

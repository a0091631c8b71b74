/// Tests for the serve wire protocol: encoder/decoder round trips,
/// little-endian layout, and FrameReader's handling of fragmentation,
/// coalescing, and hostile framing (zero-length, oversized, truncated).

#include "pnm/serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace pnm::serve {
namespace {

/// Feeds `bytes` to a reader `step` bytes at a time, collecting frames.
struct Collected {
  std::vector<FrameType> types;
  std::vector<std::vector<std::uint8_t>> payloads;
};

bool feed_in_steps(FrameReader& reader, const std::vector<std::uint8_t>& bytes,
                   std::size_t step, Collected& out) {
  for (std::size_t off = 0; off < bytes.size(); off += step) {
    const std::size_t n = std::min(step, bytes.size() - off);
    const bool ok = reader.feed(bytes.data() + off, n,
                                [&](FrameType type, std::span<const std::uint8_t> payload) {
                                  out.types.push_back(type);
                                  out.payloads.emplace_back(payload.begin(), payload.end());
                                });
    if (!ok) return false;
  }
  return true;
}

TEST(Protocol, PredictRoundTrip) {
  std::vector<std::uint8_t> frame;
  const std::vector<double> features = {0.0, 0.25, 0.999, 1.0, 1e-9};
  encode_predict(frame, 0xDEADBEEF, features);

  // Layout: u32 len | u8 type | u32 id | u8 name_len (0) | u32 n | n x f64.
  ASSERT_EQ(frame.size(), 4U + 1U + 4U + 1U + 4U + features.size() * 8U);
  EXPECT_EQ(read_u32(frame.data()), frame.size() - 4);
  EXPECT_EQ(frame[4], static_cast<std::uint8_t>(FrameType::kPredict));
  EXPECT_EQ(frame[9], 0U);  // the empty name: the default model

  std::uint32_t id = 0;
  std::vector<double> back;
  std::string name = "stale";
  ASSERT_TRUE(decode_predict({frame.data() + 5, frame.size() - 5}, id, back, &name));
  EXPECT_EQ(id, 0xDEADBEEFU);
  EXPECT_TRUE(name.empty());
  ASSERT_EQ(back.size(), features.size());
  for (std::size_t i = 0; i < features.size(); ++i) {
    EXPECT_EQ(back[i], features[i]);  // IEEE-754 bit pattern, exact
  }
}

TEST(Protocol, NamedPredictRoundTrip) {
  std::vector<std::uint8_t> frame;
  const std::vector<double> features = {0.5, 0.125, 1.0};
  encode_predict(frame, 41, features, "beta");
  ASSERT_EQ(frame.size(), 4U + 1U + 4U + 1U + 4U + 4U + features.size() * 8U);

  std::uint32_t id = 0;
  std::string name;
  std::vector<double> back;
  ASSERT_TRUE(decode_predict({frame.data() + 5, frame.size() - 5}, id, back, &name));
  EXPECT_EQ(id, 41U);
  EXPECT_EQ(name, "beta");
  EXPECT_EQ(back, features);
  // Without a name sink the name is validated and skipped.
  ASSERT_TRUE(decode_predict({frame.data() + 5, frame.size() - 5}, id, back));
  EXPECT_EQ(back, features);

  // A name beyond the u8 length field is refused at encode time.
  EXPECT_THROW(encode_predict(frame, 7, features, std::string(kMaxModelName + 1, 'x')),
               std::invalid_argument);
}

TEST(Protocol, PredictRespRoundTrip) {
  std::vector<std::uint8_t> frame;
  encode_predict_resp(frame, 7, 3, 2);
  PredictResponse resp;
  ASSERT_TRUE(decode_predict_resp({frame.data() + 5, frame.size() - 5}, resp));
  EXPECT_EQ(resp.id, 7U);
  EXPECT_EQ(resp.model_version, 3U);
  EXPECT_EQ(resp.predicted_class, 2U);

  // Wrong payload size is rejected.
  EXPECT_FALSE(decode_predict_resp({frame.data() + 5, frame.size() - 6}, resp));
}

TEST(Protocol, SwapRespRoundTrip) {
  std::vector<std::uint8_t> frame;
  encode_swap_resp(frame, true, "version 4");
  bool ok = false;
  std::string message;
  ASSERT_TRUE(decode_swap_resp({frame.data() + 5, frame.size() - 5}, ok, message));
  EXPECT_TRUE(ok);
  EXPECT_EQ(message, "version 4");

  frame.clear();
  encode_swap_resp(frame, false, "pnm-model: bad header");
  ASSERT_TRUE(decode_swap_resp({frame.data() + 5, frame.size() - 5}, ok, message));
  EXPECT_FALSE(ok);
  EXPECT_EQ(message, "pnm-model: bad header");

  EXPECT_FALSE(decode_swap_resp({}, ok, message));
}

TEST(Protocol, DecodePredictRejectsMalformedPayloads) {
  std::vector<std::uint8_t> frame;
  encode_predict(frame, 1, std::vector<double>{0.5, 0.5}, "m");
  const std::vector<std::uint8_t> payload(frame.begin() + 5, frame.end());
  std::uint32_t id = 0;
  std::string name;
  std::vector<double> features;

  // Truncated payload (count disagrees with byte length).
  EXPECT_FALSE(decode_predict({payload.data(), payload.size() - 8}, id, features, &name));
  // Name length pointing past the payload end.
  std::vector<std::uint8_t> lying = payload;
  lying[4] = 255;  // name_len
  EXPECT_FALSE(decode_predict(lying, id, features, &name));
  EXPECT_FALSE(decode_predict(lying, id, features));
  // Declared feature count too large for the payload.
  lying = payload;
  lying[6] = 200;  // n_features LE byte 0 (after id + name_len + 1-byte name)
  EXPECT_FALSE(decode_predict(lying, id, features, &name));
  // Payload ending inside the fixed header: before the name length, and
  // before the feature count.
  EXPECT_FALSE(decode_predict({payload.data(), std::size_t{4}}, id, features, &name));
  EXPECT_FALSE(decode_predict({payload.data(), std::size_t{8}}, id, features, &name));
}

TEST(Protocol, SwapRoundTrip) {
  std::vector<std::uint8_t> frame;
  encode_swap_req(frame, "beta", "/tmp/next.pnm");
  EXPECT_EQ(frame[4], static_cast<std::uint8_t>(FrameType::kSwap));
  std::string name;
  std::string path;
  ASSERT_TRUE(decode_swap_req({frame.data() + 5, frame.size() - 5}, name, path));
  EXPECT_EQ(name, "beta");
  EXPECT_EQ(path, "/tmp/next.pnm");

  // The empty name targets the default model.
  frame.clear();
  encode_swap_req(frame, "", "/tmp/default.pnm");
  ASSERT_TRUE(decode_swap_req({frame.data() + 5, frame.size() - 5}, name, path));
  EXPECT_TRUE(name.empty());
  EXPECT_EQ(path, "/tmp/default.pnm");

  // Name length overrunning the payload is refused, as is an empty one.
  std::vector<std::uint8_t> lying(frame.begin() + 5, frame.end());
  lying[0] = 255;
  EXPECT_FALSE(decode_swap_req(lying, name, path));
  EXPECT_FALSE(decode_swap_req({}, name, path));
  EXPECT_THROW(encode_swap_req(frame, std::string(kMaxModelName + 1, 'x'), "/tmp/x.pnm"),
               std::invalid_argument);
}

TEST(Protocol, ErrorRoundTrip) {
  std::vector<std::uint8_t> frame;
  encode_error(frame, ErrorCode::kUnknownModel, "unknown model: gamma");
  EXPECT_EQ(frame[4], static_cast<std::uint8_t>(FrameType::kError));
  ErrorCode code = ErrorCode::kMalformedFrame;
  std::string message;
  ASSERT_TRUE(decode_error({frame.data() + 5, frame.size() - 5}, code, message));
  EXPECT_EQ(code, ErrorCode::kUnknownModel);
  EXPECT_EQ(message, "unknown model: gamma");
  EXPECT_FALSE(decode_error({}, code, message));
}

TEST(FrameReader, ReassemblesAcrossArbitraryFragmentation) {
  // Three different frames back to back.
  std::vector<std::uint8_t> stream;
  encode_predict(stream, 1, std::vector<double>{0.1, 0.9});
  encode_stats_req(stream);
  encode_swap_req(stream, "", "/tmp/next-model.pnm");

  for (const std::size_t step : {std::size_t{1}, std::size_t{3}, std::size_t{7}, stream.size()}) {
    FrameReader reader;
    Collected got;
    ASSERT_TRUE(feed_in_steps(reader, stream, step, got)) << "step " << step;
    ASSERT_EQ(got.types.size(), 3U) << "step " << step;
    EXPECT_EQ(got.types[0], FrameType::kPredict);
    EXPECT_EQ(got.types[1], FrameType::kStats);
    EXPECT_EQ(got.types[2], FrameType::kSwap);
    std::string name;
    std::string path;
    ASSERT_TRUE(decode_swap_req(got.payloads[2], name, path));
    EXPECT_EQ(path, "/tmp/next-model.pnm");
    EXPECT_FALSE(reader.mid_frame());
  }
}

TEST(FrameReader, DetectsTruncatedFrameAtClose) {
  std::vector<std::uint8_t> frame;
  encode_predict(frame, 1, std::vector<double>{0.5});
  FrameReader reader;
  Collected got;
  // Deliver all but the last byte: no frame fires, reader is mid-frame.
  ASSERT_TRUE(feed_in_steps(reader, {frame.begin(), frame.end() - 1}, 4, got));
  EXPECT_TRUE(got.types.empty());
  EXPECT_TRUE(reader.mid_frame());
}

TEST(FrameReader, ZeroLengthFramePoisons) {
  const std::vector<std::uint8_t> zero = {0, 0, 0, 0};
  FrameReader reader;
  Collected got;
  EXPECT_FALSE(feed_in_steps(reader, zero, 4, got));
  EXPECT_TRUE(got.types.empty());
  // Poisoned: even valid bytes are refused afterwards.
  std::vector<std::uint8_t> fine;
  encode_stats_req(fine);
  EXPECT_FALSE(feed_in_steps(reader, fine, fine.size(), got));
}

TEST(FrameReader, OversizedFramePoisonsBeforeBuffering) {
  std::vector<std::uint8_t> huge;
  append_u32(huge, 1 << 30);  // 1 GiB declared; only the header is sent
  FrameReader reader(1 << 10);
  Collected got;
  EXPECT_FALSE(feed_in_steps(reader, huge, 4, got));
  EXPECT_TRUE(got.types.empty());
}

TEST(FrameReader, RespectsCustomCap) {
  std::vector<std::uint8_t> frame;
  encode_swap_req(frame, "", std::string(64, 'x'));
  {
    FrameReader small(16);
    Collected got;
    EXPECT_FALSE(feed_in_steps(small, frame, frame.size(), got));
  }
  {
    FrameReader big(1 << 10);
    Collected got;
    EXPECT_TRUE(feed_in_steps(big, frame, frame.size(), got));
    ASSERT_EQ(got.types.size(), 1U);
  }
}

}  // namespace
}  // namespace pnm::serve

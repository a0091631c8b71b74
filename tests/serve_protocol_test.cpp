/// Tests for the serve wire protocol: exact wire bytes, encoder/decoder
/// round trips, little-endian layout, and FrameReader's handling of
/// fragmentation, coalescing, and hostile framing (zero-length, oversized,
/// truncated).

#include "pnm/serve/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace pnm::serve {
namespace {

/// The frames a reader dispatched, in order.
struct Collected {
  std::vector<FrameType> types;
  std::vector<std::vector<std::uint8_t>> payloads;
};

/// Feeds `bytes` to a reader in chunks of `next_size()` bytes, collecting
/// frames.  False as soon as a feed reports a framing violation.
bool feed_chunked(FrameReader& reader, const std::vector<std::uint8_t>& bytes,
                  const std::function<std::size_t()>& next_size, Collected& out) {
  for (std::size_t off = 0; off < bytes.size();) {
    const std::size_t n = std::min(next_size(), bytes.size() - off);
    const bool ok = reader.feed(bytes.data() + off, n,
                                [&](FrameType type, std::span<const std::uint8_t> payload) {
                                  out.types.push_back(type);
                                  out.payloads.emplace_back(payload.begin(), payload.end());
                                });
    if (!ok) return false;
    off += n;
  }
  return true;
}

/// Feeds `bytes` to a reader `step` bytes at a time, collecting frames.
bool feed_in_steps(FrameReader& reader, const std::vector<std::uint8_t>& bytes,
                   std::size_t step, Collected& out) {
  return feed_chunked(reader, bytes, [step] { return step; }, out);
}

std::string hex(const std::vector<std::uint8_t>& bytes) {
  std::string s;
  char digits[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(digits, sizeof(digits), "%02x", b);
    s += digits;
  }
  return s;
}

/// Encodes one frame with `encode` into a fresh buffer, as lowercase hex.
std::string encoded_hex(const std::function<void(std::vector<std::uint8_t>&)>& encode) {
  std::vector<std::uint8_t> frame;
  encode(frame);
  return hex(frame);
}

TEST(Protocol, GoldenWireBytes) {
  // Exact frames, pinned so that a change moving an encoder and its
  // decoder together still fails here.
  using Out = std::vector<std::uint8_t>;
  EXPECT_EQ(encoded_hex([](Out& o) {
              encode_predict(o, 0xA1B2C3D4U, std::vector<double>{0.0, 0.1, 1.0, -2.5});
            }),
            "2a00000001"        // length 42, kPredict
            "d4c3b2a1"          // id
            "00"                // the default model
            "04000000"          // 4 features
            "0000000000000000"  // 0.0
            "9a9999999999b93f"  // 0.1
            "000000000000f03f"  // 1.0
            "00000000000004c0");
  EXPECT_EQ(encoded_hex([](Out& o) {
              encode_predict(o, 41, std::vector<double>{0.125, 0.75}, "beta");
            }),
            "1e00000001"        // length 30, kPredict
            "29000000"          // id 41
            "0462657461"        // name "beta"
            "02000000"          // 2 features
            "000000000000c03f"  // 0.125
            "000000000000e83f");
  EXPECT_EQ(encoded_hex([](Out& o) { encode_predict_resp(o, 0xA1B2C3D4U, 3, 258); }),
            "0d00000002d4c3b2a10300000002010000");
  EXPECT_EQ(encoded_hex([](Out& o) { encode_stats_req(o); }), "0100000003");
  EXPECT_EQ(encoded_hex([](Out& o) { encode_swap_req(o, "beta", "/m/next.pnm"); }),
            "110000000504626574612f6d2f6e6578742e706e6d");
  EXPECT_EQ(encoded_hex([](Out& o) { encode_swap_req(o, "", "/m/d.pnm"); }),
            "0a00000005002f6d2f642e706e6d");
  EXPECT_EQ(encoded_hex([](Out& o) { encode_swap_resp(o, true, "version 4"); }),
            "0b000000060176657273696f6e2034");
  EXPECT_EQ(encoded_hex([](Out& o) { encode_swap_resp(o, false, "bad"); }),
            "050000000600626164");
  EXPECT_EQ(encoded_hex([](Out& o) {
              const std::string json = R"({"a":1})";
              encode_payload_frame(o, FrameType::kStatsResp,
                                   {reinterpret_cast<const std::uint8_t*>(json.data()),
                                    json.size()});
            }),
            "08000000047b2261223a317d");
  EXPECT_EQ(encoded_hex([](Out& o) {
              encode_error(o, ErrorCode::kUnknownModel, "unknown model: gamma");
            }),
            "160000000702756e6b6e6f776e206d6f64656c3a2067616d6d61");
  EXPECT_EQ(encoded_hex([](Out& o) {
              append_u32(o, 0x01020304U);
              append_f64(o, -0.1);
            }),
            "040302019a9999999999b9bf");

  // Encoders append: earlier bytes in `out` are kept as they were.
  std::vector<std::uint8_t> stream;
  encode_stats_req(stream);
  encode_predict_resp(stream, 0xA1B2C3D4U, 3, 258);
  encode_stats_req(stream);
  EXPECT_EQ(hex(stream), "0100000003" "0d00000002d4c3b2a10300000002010000" "0100000003");
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

  // A name beyond the u8 length field is refused at encode time, and the
  // refused frame leaves no bytes behind.
  const std::vector<std::uint8_t> before = frame;
  EXPECT_THROW(encode_predict(frame, 7, features, std::string(kMaxModelName + 1, 'x')),
               std::invalid_argument);
  EXPECT_EQ(frame, before);
}

TEST(Protocol, PredictEnforcesMaxFeatures) {
  // kMaxFeatures features round-trip...
  std::vector<double> features(kMaxFeatures);
  for (std::size_t i = 0; i < features.size(); ++i) {
    features[i] = static_cast<double>(i) / static_cast<double>(kMaxFeatures);
  }
  std::vector<std::uint8_t> frame;
  encode_predict(frame, 5, features, "wide");
  std::uint32_t id = 0;
  std::string name;
  std::vector<double> back;
  ASSERT_TRUE(decode_predict({frame.data() + 5, frame.size() - 5}, id, back, &name));
  EXPECT_EQ(id, 5U);
  EXPECT_EQ(name, "wide");
  EXPECT_EQ(back, features);

  // ...one more is refused at encode time (decode_predict would reject the
  // frame and the server would drop the connection), leaving `out` as it was.
  features.push_back(1.0);
  const std::vector<std::uint8_t> before = frame;
  EXPECT_THROW(encode_predict(frame, 6, features), std::invalid_argument);
  EXPECT_EQ(frame, before);
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

/// About fifty mixed frames: default and named predicts of varying width,
/// responses, stats, errors, and swaps (one with a 1 KiB path).  Appends
/// each frame's start offset to `starts`.
std::vector<std::uint8_t> mixed_stream(std::vector<std::size_t>& starts) {
  std::vector<std::uint8_t> s;
  for (std::uint32_t i = 0; i < 50; ++i) {
    starts.push_back(s.size());
    std::vector<double> x(i % 17);
    for (std::size_t j = 0; j < x.size(); ++j) x[j] = static_cast<double>(i + j) / 64.0;
    switch (i % 7) {
      case 0:
        encode_predict(s, i, x);
        break;
      case 1:
        encode_predict(s, i, x, "model-" + std::to_string(i));
        break;
      case 2:
        encode_predict_resp(s, i, i + 1, i % 10);
        break;
      case 3:
        encode_stats_req(s);
        break;
      case 4:
        encode_swap_req(s, i % 2 == 0 ? "" : "beta",
                        i == 4 ? "/" + std::string(1023, 'p') : "/tmp/m.pnm");
        break;
      case 5:
        encode_error(s, ErrorCode::kWidthMismatch, "width " + std::to_string(i));
        break;
      default:
        encode_swap_resp(s, i % 2 == 0, "version " + std::to_string(i));
        break;
    }
  }
  return s;
}

/// Every chunking the equivalence tests try: each fixed step from 1 to 64
/// bytes, then 100 seeded random chunkings mixing short and long chunks.
std::vector<std::function<std::size_t()>> chunkings() {
  std::vector<std::function<std::size_t()>> all;
  for (std::size_t step = 1; step <= 64; ++step) all.emplace_back([step] { return step; });
  for (std::uint32_t seed = 0; seed < 100; ++seed) {
    all.emplace_back([rng = std::mt19937(seed)]() mutable {
      const std::size_t cap = rng() % 4 == 0 ? 2048 : 24;
      return 1 + rng() % cap;
    });
  }
  return all;
}

TEST(FrameReader, EveryChunkingDispatchesTheSameFrames) {
  std::vector<std::size_t> starts;
  const std::vector<std::uint8_t> stream = mixed_stream(starts);
  FrameReader whole_reader;
  Collected whole;
  ASSERT_TRUE(feed_in_steps(whole_reader, stream, stream.size(), whole));
  ASSERT_EQ(whole.types.size(), starts.size());
  EXPECT_FALSE(whole_reader.mid_frame());
  // The whole feed itself yields each frame exactly as it was encoded.
  starts.push_back(stream.size());
  for (std::size_t i = 0; i < whole.types.size(); ++i) {
    const auto frame = stream.begin() + static_cast<std::ptrdiff_t>(starts[i]);
    EXPECT_EQ(whole.types[i], static_cast<FrameType>(frame[4])) << "frame " << i;
    EXPECT_EQ(whole.payloads[i],
              std::vector<std::uint8_t>(frame + 5,
                                        stream.begin() + static_cast<std::ptrdiff_t>(starts[i + 1])))
        << "frame " << i;
  }

  const auto all = chunkings();
  for (std::size_t c = 0; c < all.size(); ++c) {
    FrameReader reader;
    Collected got;
    ASSERT_TRUE(feed_chunked(reader, stream, all[c], got)) << "chunking " << c;
    EXPECT_EQ(got.types, whole.types) << "chunking " << c;
    EXPECT_EQ(got.payloads, whole.payloads) << "chunking " << c;
    EXPECT_FALSE(reader.mid_frame()) << "chunking " << c;
  }
}

TEST(FrameReader, EveryChunkingPoisonsAfterTheSameFrames) {
  std::vector<std::size_t> starts;
  const std::vector<std::uint8_t> frames = mixed_stream(starts);
  starts.push_back(frames.size());
  std::vector<std::uint8_t> over_cap;
  append_u32(over_cap, static_cast<std::uint32_t>(kDefaultMaxFrameBytes + 1));
  const std::vector<std::vector<std::uint8_t>> bad_headers = {{0, 0, 0, 0}, over_cap};

  const auto all = chunkings();
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5}, std::size_t{17},
                              std::size_t{49}, std::size_t{50}}) {
    for (const auto& bad : bad_headers) {
      // Frames [0, k), the bad header, then frames that must never fire.
      std::vector<std::uint8_t> stream(frames.begin(),
                                       frames.begin() + static_cast<std::ptrdiff_t>(starts[k]));
      stream.insert(stream.end(), bad.begin(), bad.end());
      stream.insert(stream.end(), frames.begin(), frames.end());

      FrameReader whole_reader;
      Collected whole;
      EXPECT_FALSE(feed_in_steps(whole_reader, stream, stream.size(), whole));
      ASSERT_EQ(whole.types.size(), k) << "poison after frame " << k;
      for (std::size_t c = 0; c < all.size(); ++c) {
        FrameReader reader;
        Collected got;
        EXPECT_FALSE(feed_chunked(reader, stream, all[c], got))
            << "poison after frame " << k << ", chunking " << c;
        EXPECT_EQ(got.types, whole.types) << "poison after frame " << k << ", chunking " << c;
        EXPECT_EQ(got.payloads, whole.payloads)
            << "poison after frame " << k << ", chunking " << c;
      }
    }
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

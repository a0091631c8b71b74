#include "pnm/serve/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace pnm::serve {

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

double read_f64(const std::uint8_t* p) {
  if constexpr (std::endian::native == std::endian::little) {
    double v = 0.0;
    std::memcpy(&v, p, 8);
    return v;
  } else {
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return std::bit_cast<double>(bits);
  }
}

namespace {

/// Stores `v` little-endian at `p` and returns the byte after it.
std::uint8_t* put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
  return p + 4;
}

/// Stores `v`'s IEEE-754 bits little-endian at `p` and returns the byte
/// after them.
std::uint8_t* put_f64(std::uint8_t* p, double v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, 8);
  } else {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(bits >> (8 * i));
  }
  return p + 8;
}

/// Copies `bytes` to `p` and returns the byte after them.
std::uint8_t* put_bytes(std::uint8_t* p, std::string_view bytes) {
  if (!bytes.empty()) std::memcpy(p, bytes.data(), bytes.size());
  return p + bytes.size();
}

/// Stores a u8-length-prefixed model name at `p` (its length already
/// passed check_name).
std::uint8_t* put_name(std::uint8_t* p, std::string_view name) {
  *p = static_cast<std::uint8_t>(name.size());
  return put_bytes(p + 1, name);
}

/// Grows `out` by `n` bytes in one step and returns where they start; the
/// caller stores every one of them.
std::uint8_t* grow(std::vector<std::uint8_t>& out, std::size_t n) {
  const std::size_t at = out.size();
  out.resize(at + n);
  return out.data() + at;
}

/// Grows `out` by one whole frame whose payload after the type tag is `n`
/// bytes, stores the header (length + type), and returns where the payload
/// goes.
std::uint8_t* grow_frame(std::vector<std::uint8_t>& out, FrameType type, std::size_t n) {
  std::uint8_t* p = put_u32(grow(out, 5 + n), static_cast<std::uint32_t>(n + 1));
  *p = static_cast<std::uint8_t>(type);
  return p + 1;
}

/// Throws unless `name` fits the u8 length field.
void check_name(std::string_view name, const char* who) {
  if (name.size() > kMaxModelName) {
    throw std::invalid_argument(std::string(who) + ": model name too long");
  }
}

/// Reads the u8-length-prefixed name at `pos` into `name` (when non-null)
/// and advances `pos` past it.  False when it overruns the payload.
bool read_name(std::span<const std::uint8_t> payload, std::size_t& pos, std::string* name) {
  if (pos >= payload.size()) return false;
  const std::size_t len = payload[pos];
  if (payload.size() - pos - 1 < len) return false;
  if (name != nullptr) name->assign(reinterpret_cast<const char*>(payload.data() + pos + 1), len);
  pos += 1 + len;
  return true;
}

}  // namespace

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) { put_u32(grow(out, 4), v); }

void append_f64(std::vector<std::uint8_t>& out, double v) { put_f64(grow(out, 8), v); }

void encode_predict(std::vector<std::uint8_t>& out, std::uint32_t id,
                    std::span<const double> features, std::string_view model_name) {
  check_name(model_name, "encode_predict");
  if (features.size() > kMaxFeatures) {
    throw std::invalid_argument("encode_predict: too many features");
  }
  std::uint8_t* p = grow_frame(out, FrameType::kPredict,
                               4 + 1 + model_name.size() + 4 + features.size() * 8);
  p = put_name(put_u32(p, id), model_name);
  p = put_u32(p, static_cast<std::uint32_t>(features.size()));
  for (const double f : features) p = put_f64(p, f);
}

void encode_predict_resp(std::vector<std::uint8_t>& out, std::uint32_t id,
                         std::uint32_t model_version, std::uint32_t predicted_class) {
  std::uint8_t* p = grow_frame(out, FrameType::kPredictResp, 12);
  put_u32(put_u32(put_u32(p, id), model_version), predicted_class);
}

void encode_stats_req(std::vector<std::uint8_t>& out) {
  grow_frame(out, FrameType::kStats, 0);
}

void encode_swap_req(std::vector<std::uint8_t>& out, std::string_view model_name,
                     std::string_view model_path) {
  check_name(model_name, "encode_swap_req");
  std::uint8_t* p =
      grow_frame(out, FrameType::kSwap, 1 + model_name.size() + model_path.size());
  put_bytes(put_name(p, model_name), model_path);
}

void encode_payload_frame(std::vector<std::uint8_t>& out, FrameType type,
                          std::span<const std::uint8_t> payload) {
  put_bytes(grow_frame(out, type, payload.size()),
            {reinterpret_cast<const char*>(payload.data()), payload.size()});
}

void encode_swap_resp(std::vector<std::uint8_t>& out, bool ok, const std::string& message) {
  std::uint8_t* p = grow_frame(out, FrameType::kSwapResp, 1 + message.size());
  *p = ok ? 1 : 0;
  put_bytes(p + 1, message);
}

void encode_error(std::vector<std::uint8_t>& out, ErrorCode code, const std::string& message) {
  std::uint8_t* p = grow_frame(out, FrameType::kError, 1 + message.size());
  *p = static_cast<std::uint8_t>(code);
  put_bytes(p + 1, message);
}

bool decode_predict(std::span<const std::uint8_t> payload, std::uint32_t& id,
                    std::vector<double>& features, std::string* model_name) {
  if (payload.size() < 4) return false;
  id = read_u32(payload.data());
  std::size_t pos = 4;
  if (!read_name(payload, pos, model_name) || payload.size() - pos < 4) return false;
  const std::uint32_t n = read_u32(payload.data() + pos);
  pos += 4;
  if (n > kMaxFeatures) return false;
  if (payload.size() - pos != static_cast<std::size_t>(n) * 8) return false;
  features.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    features[i] = read_f64(payload.data() + pos + static_cast<std::size_t>(i) * 8);
  }
  return true;
}

bool decode_swap_req(std::span<const std::uint8_t> payload, std::string& model_name,
                     std::string& model_path) {
  std::size_t pos = 0;
  if (!read_name(payload, pos, &model_name)) return false;
  model_path.assign(reinterpret_cast<const char*>(payload.data() + pos), payload.size() - pos);
  return true;
}

bool decode_error(std::span<const std::uint8_t> payload, ErrorCode& code,
                  std::string& message) {
  if (payload.empty()) return false;
  code = static_cast<ErrorCode>(payload[0]);
  message.assign(payload.begin() + 1, payload.end());
  return true;
}

bool decode_predict_resp(std::span<const std::uint8_t> payload, PredictResponse& out) {
  if (payload.size() != 12) return false;
  out.id = read_u32(payload.data());
  out.model_version = read_u32(payload.data() + 4);
  out.predicted_class = read_u32(payload.data() + 8);
  return true;
}

bool decode_swap_resp(std::span<const std::uint8_t> payload, bool& ok, std::string& message) {
  if (payload.empty()) return false;
  ok = payload[0] != 0;
  message.assign(payload.begin() + 1, payload.end());
  return true;
}

bool FrameReader::feed(const std::uint8_t* data, std::size_t n, const FrameHandler& on_frame) {
  if (poisoned_) return false;
  // Checks a frame length the moment its 4 bytes are known: 0 or over the
  // cap poisons the reader before anything more is buffered.
  const auto length_ok = [this](std::uint32_t len) {
    if (len != 0 && len <= max_frame_bytes_) return true;
    poisoned_ = true;
    buf_.clear();
    return false;
  };
  // Moves up to `want` more bytes of the new data into the buffer; true
  // once the buffer holds `want` bytes.
  const auto fill_to = [&](std::size_t want) {
    const std::size_t take = std::min(want - buf_.size(), n);
    buf_.insert(buf_.end(), data, data + take);
    data += take;
    n -= take;
    return buf_.size() == want;
  };

  // 1. Finish the frame split across reads, if any, from the front of the
  //    new bytes: its length first, then the rest of the frame.
  if (!buf_.empty()) {
    if (buf_.size() < 4) {
      if (!fill_to(4)) return true;
      if (!length_ok(read_u32(buf_.data()))) return false;
    }
    if (!fill_to(4 + static_cast<std::size_t>(read_u32(buf_.data())))) return true;
    on_frame(static_cast<FrameType>(buf_[4]),
             std::span<const std::uint8_t>(buf_.data() + 5, buf_.size() - 5));
    buf_.clear();
  }

  // 2. Dispatch every whole frame straight from the caller's bytes.
  while (n >= 4) {
    const std::uint32_t len = read_u32(data);
    if (!length_ok(len)) return false;
    if (n - 4 < len) break;
    on_frame(static_cast<FrameType>(data[4]), std::span<const std::uint8_t>(data + 5, len - 1));
    data += 4 + static_cast<std::size_t>(len);
    n -= 4 + static_cast<std::size_t>(len);
  }

  // 3. Keep only the tail: a frame that the next read continues.
  buf_.assign(data, data + n);
  return true;
}

}  // namespace pnm::serve

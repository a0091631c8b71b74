#include "pnm/serve/protocol.hpp"

#include <cstring>
#include <stdexcept>

namespace pnm::serve {

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

void append_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((bits >> (8 * i)) & 0xff));
  }
}

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

double read_f64(const std::uint8_t* p) {
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

namespace {

/// Appends the frame header (length + type) for a payload of `n` bytes.
void append_header(std::vector<std::uint8_t>& out, FrameType type, std::size_t n) {
  append_u32(out, static_cast<std::uint32_t>(n + 1));  // +1 for the type byte
  out.push_back(static_cast<std::uint8_t>(type));
}

/// Throws unless `name` fits the u8 length field.
void check_name(std::string_view name, const char* who) {
  if (name.size() > kMaxModelName) {
    throw std::invalid_argument(std::string(who) + ": model name too long");
  }
}

/// Appends a u8-length-prefixed model name.
void append_name(std::vector<std::uint8_t>& out, std::string_view name) {
  out.push_back(static_cast<std::uint8_t>(name.size()));
  out.insert(out.end(), name.begin(), name.end());
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

void encode_predict(std::vector<std::uint8_t>& out, std::uint32_t id,
                    std::span<const double> features, std::string_view model_name) {
  check_name(model_name, "encode_predict");
  append_header(out, FrameType::kPredict, 4 + 1 + model_name.size() + 4 + features.size() * 8);
  append_u32(out, id);
  append_name(out, model_name);
  append_u32(out, static_cast<std::uint32_t>(features.size()));
  for (const double f : features) append_f64(out, f);
}

void encode_predict_resp(std::vector<std::uint8_t>& out, std::uint32_t id,
                         std::uint32_t model_version, std::uint32_t predicted_class) {
  append_header(out, FrameType::kPredictResp, 12);
  append_u32(out, id);
  append_u32(out, model_version);
  append_u32(out, predicted_class);
}

void encode_stats_req(std::vector<std::uint8_t>& out) {
  append_header(out, FrameType::kStats, 0);
}

void encode_swap_req(std::vector<std::uint8_t>& out, std::string_view model_name,
                     std::string_view model_path) {
  check_name(model_name, "encode_swap_req");
  append_header(out, FrameType::kSwap, 1 + model_name.size() + model_path.size());
  append_name(out, model_name);
  out.insert(out.end(), model_path.begin(), model_path.end());
}

void encode_payload_frame(std::vector<std::uint8_t>& out, FrameType type,
                          std::span<const std::uint8_t> payload) {
  append_header(out, type, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

void encode_swap_resp(std::vector<std::uint8_t>& out, bool ok, const std::string& message) {
  append_header(out, FrameType::kSwapResp, 1 + message.size());
  out.push_back(ok ? 1 : 0);
  out.insert(out.end(), message.begin(), message.end());
}

void encode_error(std::vector<std::uint8_t>& out, ErrorCode code, const std::string& message) {
  append_header(out, FrameType::kError, 1 + message.size());
  out.push_back(static_cast<std::uint8_t>(code));
  out.insert(out.end(), message.begin(), message.end());
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
  buf_.insert(buf_.end(), data, data + n);
  std::size_t pos = 0;
  while (buf_.size() - pos >= 4) {
    const std::uint32_t len = read_u32(buf_.data() + pos);
    if (len == 0 || len > max_frame_bytes_) {
      poisoned_ = true;
      buf_.clear();
      return false;
    }
    if (buf_.size() - pos < 4 + static_cast<std::size_t>(len)) break;
    const FrameType type = static_cast<FrameType>(buf_[pos + 4]);
    on_frame(type, std::span<const std::uint8_t>(buf_.data() + pos + 5, len - 1));
    pos += 4 + len;
  }
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos));
  return true;
}

}  // namespace pnm::serve

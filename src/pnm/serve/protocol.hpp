#ifndef PNM_SERVE_PROTOCOL_HPP
#define PNM_SERVE_PROTOCOL_HPP

/// \file protocol.hpp
/// \brief The serve wire protocol: length-prefixed frames over TCP.
///
/// Every message in either direction is one frame:
///
///     u32 length   | bytes that follow (type byte + payload); [1, max]
///     u8  type     | FrameType
///     ...payload   | type-specific, little-endian, packed
///
/// Request payloads.  A model name is at most kMaxModelName UTF-8 bytes;
/// the empty name means the registry's default (first-registered) model.
///   kPredict:  u32 request-id, u8 name-length, name, u32 n_features,
///              n_features x f64 (IEEE-754 bits) — features min-max scaled
///              to [0, 1]; the server quantizes with the routed model's
///              input_bits, exactly like the offline QuantizedDataset
///              encoder.
///   kStats:    empty — admin: metrics snapshot.
///   kSwap:     u8 name-length, name, then the UTF-8 path of a pnm-model
///              file — admin: hot-swap exactly that model (other models'
///              versions are untouched).
///
/// Response payloads:
///   kPredictResp: u32 request-id (echoed), u32 model-version, u32 class.
///                 The version tag is what makes hot-swap verifiable: a
///                 client can check every response bit-exactly against the
///                 offline prediction of the *specific* design that served
///                 it, so a misrouted or torn swap is machine-detectable.
///                 Versions are per model name — the (requested model,
///                 version) pair identifies one immutable design.
///   kStatsResp:   UTF-8 JSON document (see MetricsSnapshot::to_json).
///   kSwapResp:    u8 ok, then a UTF-8 message (new version or the load
///                 error; on failure the old model keeps serving).
///   kError:       u8 ErrorCode, then a UTF-8 message.  After
///                 kMalformedFrame the server closes the connection
///                 (framing cannot be trusted past a malformed frame);
///                 after kUnknownModel or kWidthMismatch it keeps serving
///                 and the next valid request is answered normally.
///
/// Integers are little-endian; doubles are their IEEE-754 bit pattern,
/// little-endian.  The decoder never trusts the peer: lengths are bounded
/// before buffering, counts are cross-checked against the frame length,
/// and any violation is surfaced as a typed error, not a crash.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pnm::serve {

/// Frame type tags (first payload byte).  Any other tag is a malformed
/// frame.
enum class FrameType : std::uint8_t {
  kPredict = 1,
  kPredictResp = 2,
  kStats = 3,
  kStatsResp = 4,
  kSwap = 5,
  kSwapResp = 6,
  kError = 7,
};

/// Machine-readable reason codes for kError frames.
enum class ErrorCode : std::uint8_t {
  kMalformedFrame = 1,  ///< bad framing, payload, or type tag (connection closes)
  kUnknownModel = 2,    ///< model name not in the registry
  kWidthMismatch = 3,   ///< feature count != the serving model's input size
};

/// Default cap on one frame's post-length bytes.  Predict frames are tiny
/// (a few hundred bytes for printed-MLP feature counts); 1 MiB leaves
/// headroom without letting a client balloon server memory.
constexpr std::size_t kDefaultMaxFrameBytes = 1 << 20;

/// Hard cap on kPredict feature counts (sanity bound, far above any
/// printed classifier).
constexpr std::size_t kMaxFeatures = 1 << 14;

/// Cap on model-name length (fits the u8 length field).
constexpr std::size_t kMaxModelName = 255;

// ---- little-endian primitives ------------------------------------------

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void append_f64(std::vector<std::uint8_t>& out, double v);
std::uint32_t read_u32(const std::uint8_t* p);
double read_f64(const std::uint8_t* p);

// ---- frame encoders (append one complete frame to `out`) ---------------
//
// Each encoder grows `out` once per frame, to the frame's exact size, and
// stores the fields in place; bytes already in `out` are kept.  Limits are
// checked before `out` grows, so an encoder that throws leaves it unchanged.

/// kPredict frame routed to `model_name` ("" = the default model).
/// \throws std::invalid_argument  when `model_name` exceeds kMaxModelName
///                                or `features` exceeds kMaxFeatures.
void encode_predict(std::vector<std::uint8_t>& out, std::uint32_t id,
                    std::span<const double> features, std::string_view model_name = {});
/// kPredictResp frame.
void encode_predict_resp(std::vector<std::uint8_t>& out, std::uint32_t id,
                         std::uint32_t model_version, std::uint32_t predicted_class);
/// kStats request frame.
void encode_stats_req(std::vector<std::uint8_t>& out);
/// kSwap request frame targeting `model_name` ("" = the default model).
/// \throws std::invalid_argument  when `model_name` exceeds kMaxModelName.
void encode_swap_req(std::vector<std::uint8_t>& out, std::string_view model_name,
                     std::string_view model_path);
/// A frame of `type` with a raw byte payload (kStatsResp).
void encode_payload_frame(std::vector<std::uint8_t>& out, FrameType type,
                          std::span<const std::uint8_t> payload);
/// kSwapResp frame.
void encode_swap_resp(std::vector<std::uint8_t>& out, bool ok, const std::string& message);
/// kError frame.
void encode_error(std::vector<std::uint8_t>& out, ErrorCode code, const std::string& message);

// ---- payload decoders (bytes after the type tag) -------------------------

/// Decodes a kPredict payload into `id`, `features` (reused, resized) and,
/// when `model_name` is non-null, the name (reused).  False when the name
/// length overruns the payload, or the feature count exceeds kMaxFeatures
/// or disagrees with the remaining size.
bool decode_predict(std::span<const std::uint8_t> payload, std::uint32_t& id,
                    std::vector<double>& features, std::string* model_name = nullptr);

/// Decodes a kSwap payload into `model_name` and `model_path`.  False when
/// the payload is empty or the name length overruns it.
bool decode_swap_req(std::span<const std::uint8_t> payload, std::string& model_name,
                     std::string& model_path);

/// Decodes a kError payload.  False on an empty payload.
bool decode_error(std::span<const std::uint8_t> payload, ErrorCode& code,
                  std::string& message);

/// Decoded kPredictResp payload.
struct PredictResponse {
  std::uint32_t id = 0;
  std::uint32_t model_version = 0;
  std::uint32_t predicted_class = 0;
};

/// Decodes a kPredictResp payload.  False on size mismatch.
bool decode_predict_resp(std::span<const std::uint8_t> payload, PredictResponse& out);

/// Decodes a kSwapResp payload.  False on empty payload.
bool decode_swap_resp(std::span<const std::uint8_t> payload, bool& ok, std::string& message);

// ---- incremental frame reassembly ---------------------------------------

/// Reassembles frames from an arbitrary byte stream (per connection).
/// feed() invokes the callback once per complete frame, in stream order.
/// Whole frames are dispatched straight from the caller's bytes; only a
/// frame split across feeds is buffered.  A frame whose declared length is
/// 0 or exceeds the cap poisons the reader as soon as its 4 length bytes
/// are known (feed returns false and the connection must be dropped —
/// framing is unrecoverable).
class FrameReader {
 public:
  using FrameHandler = std::function<void(FrameType, std::span<const std::uint8_t>)>;

  /// \param max_frame_bytes  cap on one frame's post-length byte count.
  explicit FrameReader(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Consumes `n` raw bytes, dispatching every completed frame.
  ///
  /// \param data      received bytes.
  /// \param n         byte count.
  /// \param on_frame  called with (type, payload-after-type) per frame.
  ///                  The payload span may point into `data` or into the
  ///                  reader's buffer: it is valid only during the call, so
  ///                  a handler copies whatever it keeps.
  /// \return false on a framing violation (reader is poisoned).
  bool feed(const std::uint8_t* data, std::size_t n, const FrameHandler& on_frame);

  /// Whether a partially-received frame is pending — at connection close
  /// this distinguishes a clean disconnect from a truncated frame.
  [[nodiscard]] bool mid_frame() const { return !buf_.empty(); }

 private:
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buf_;  ///< the start of a frame split across feeds
  bool poisoned_ = false;
};

}  // namespace pnm::serve

#endif  // PNM_SERVE_PROTOCOL_HPP

/// Fuzz target: serve::FrameReader::feed + every payload decoder.
///
/// Structure-aware split: the first input byte seeds a deterministic
/// chunker, so one corpus entry exercises many fragmentation patterns of
/// the same byte stream across mutations (reassembly joins are where
/// incremental parsers break).  Every completed frame is pushed through
/// the real payload decoder of its type — including the peer-controlled
/// u8-length model names of kPredict and kSwap — and invariants are
/// enforced with abort(): a poisoned reader must stay poisoned, a
/// dispatched payload must never exceed the frame cap, a decoded name
/// fits its length field, and a decoded swap's name and path partition
/// its payload.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "pnm/serve/protocol.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const std::uint8_t chunk_seed = data[0];
  ++data;
  --size;

  constexpr std::size_t kCap = 1 << 16;
  pnm::serve::FrameReader reader(kCap);

  std::uint32_t id = 0;
  std::vector<double> features;
  std::string name;
  std::string path;
  pnm::serve::PredictResponse resp;
  bool ok_flag = false;
  pnm::serve::ErrorCode code{};
  std::string message;

  const auto handler = [&](pnm::serve::FrameType type,
                           std::span<const std::uint8_t> payload) {
    if (payload.size() >= kCap) abort();  // cap must bound every dispatch
    switch (type) {
      case pnm::serve::FrameType::kPredict:
        if (pnm::serve::decode_predict(payload, id, features, &name) &&
            name.size() > pnm::serve::kMaxModelName) {
          abort();  // a decoded name always fits its u8 length field
        }
        break;
      case pnm::serve::FrameType::kPredictResp:
        (void)pnm::serve::decode_predict_resp(payload, resp);
        break;
      case pnm::serve::FrameType::kSwap:
        if (pnm::serve::decode_swap_req(payload, name, path) &&
            1 + name.size() + path.size() != payload.size()) {
          abort();  // name and path partition the payload exactly
        }
        break;
      case pnm::serve::FrameType::kSwapResp:
        (void)pnm::serve::decode_swap_resp(payload, ok_flag, message);
        break;
      case pnm::serve::FrameType::kError:
        (void)pnm::serve::decode_error(payload, code, message);
        break;
      default:
        break;  // kStats/kStatsResp payloads are free-form bytes
    }
  };

  std::uint64_t rng = (static_cast<std::uint64_t>(chunk_seed) << 1) | 1;
  std::size_t pos = 0;
  bool alive = true;
  while (pos < size && alive) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    const std::size_t chunk = std::min<std::size_t>(1 + (rng >> 33) % 37, size - pos);
    alive = reader.feed(data + pos, chunk, handler);
    pos += chunk;
  }
  (void)reader.mid_frame();
  if (!alive && reader.feed(data, size, handler)) abort();  // poison is sticky
  return 0;
}

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
///
/// Differential oracle: a second reader takes the whole input in one
/// feed.  It must dispatch exactly the frames the chunked reader did (type
/// and payload bytes, in order), agree on whether the stream poisons, and,
/// when it does not, agree on whether a partial frame is left pending.

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

  // The frames the current reader dispatched: type, u32 length, payload.
  std::vector<std::uint8_t> chunked_log;
  std::vector<std::uint8_t> whole_log;
  std::vector<std::uint8_t>* log = &chunked_log;

  const auto handler = [&](pnm::serve::FrameType type,
                           std::span<const std::uint8_t> payload) {
    if (payload.size() >= kCap) abort();  // cap must bound every dispatch
    log->push_back(static_cast<std::uint8_t>(type));
    pnm::serve::append_u32(*log, static_cast<std::uint32_t>(payload.size()));
    log->insert(log->end(), payload.begin(), payload.end());
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

  log = &whole_log;
  pnm::serve::FrameReader whole(kCap);
  const bool whole_alive = whole.feed(data, size, handler);
  if (whole_alive != alive || whole_log != chunked_log) abort();
  if (alive && whole.mid_frame() != reader.mid_frame()) abort();

  if (!alive && reader.feed(data, size, handler)) abort();  // poison is sticky
  return 0;
}

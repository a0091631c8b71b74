/// Fuzz target: the pnm-model v1 text parser and the integer engines.
///
/// Any input either parses to a structurally valid QuantizedMlp or
/// throws a typed std::exception — crashes, hangs, and unbounded
/// allocation are findings (the parser carries a total weight budget
/// precisely because this target demonstrated a 4 TiB allocation from a
/// 60-byte header).  Accepted inputs must additionally satisfy save/
/// parse closure: re-serializing the parsed model must produce a text
/// the parser accepts again with identical structure.  Every accepted
/// model small enough to score quickly is then run on one block of input
/// codes derived from the input bytes (all zeros, all maxima, and mixed
/// lanes): the blocked engine on the scalar and the active kernel tables,
/// in the model's lane width, must give every lane the logits and the
/// class the single-sample int64 engine gives it.  Under a sanitizer
/// this also checks that no engine overflows.

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "pnm/core/infer_simd.hpp"
#include "pnm/core/model_io.hpp"
#include "pnm/core/qmlp.hpp"

namespace {

/// Models whose weights, neurons and inputs add up to more than this are
/// parsed but not scored, so a corpus replay stays fast.
constexpr std::size_t kScoreCap = std::size_t{1} << 12;

void check_engines_agree(const pnm::QuantizedMlp& model, const std::uint8_t* data,
                         std::size_t size) {
  constexpr std::size_t kB = pnm::simd::kSampleBlock;
  const std::size_t n_in = model.input_size();
  std::size_t cost = model.nonzero_weights() + n_in;
  for (const auto& l : model.layers()) cost += l.out_features();
  if (cost > kScoreCap) return;

  const std::int64_t codes = std::int64_t{1} << model.input_bits();
  std::vector<std::vector<std::int64_t>> samples(kB, std::vector<std::int64_t>(n_in));
  std::vector<std::int64_t> xb(n_in * kB);
  for (std::size_t j = 0; j < kB; ++j) {
    for (std::size_t f = 0; f < n_in; ++f) {
      const std::uint64_t byte = size == 0 ? 0 : data[(j * n_in + f) % size];
      std::int64_t x = static_cast<std::int64_t>((byte * 131 + f) % static_cast<std::uint64_t>(codes));
      if (j == 0) x = 0;
      if (j == 1) x = codes - 1;
      samples[j][f] = x;
      xb[f * kB + j] = x;
    }
  }

  pnm::InferScratch single;
  pnm::BlockScratch block;
  std::size_t preds[kB] = {};
  for (const pnm::simd::Isa isa : {pnm::simd::Isa::kScalar, pnm::simd::active_isa()}) {
    const auto logits = model.forward_block_into(xb.data(), block, isa);
    const std::vector<std::int64_t> blocked(logits.begin(), logits.end());
    model.predict_block_into(xb.data(), kB, block, preds, isa);
    for (std::size_t j = 0; j < kB; ++j) {
      const auto ref = model.forward_into(samples[j], single);
      for (std::size_t r = 0; r < ref.size(); ++r) {
        if (blocked[r * kB + j] != ref[r]) abort();  // blocked logits disagree
      }
      if (preds[j] != model.predict_quantized_into(samples[j], single)) abort();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  std::optional<pnm::QuantizedMlp> model;
  try {
    model = pnm::parse_quantized_mlp_text(text);
  } catch (const std::exception&) {
    return 0;  // typed rejection is the expected outcome for malformed input
  }
  const std::string saved = pnm::save_quantized_mlp_text(*model, "fuzz");
  try {
    const pnm::QuantizedMlp again = pnm::parse_quantized_mlp_text(saved);
    if (again.layer_count() != model->layer_count() ||
        again.input_size() != model->input_size() ||
        again.input_bits() != model->input_bits()) {
      abort();  // round-trip changed the model's shape
    }
  } catch (const std::exception&) {
    abort();  // parser rejected its own serializer's output
  }
  check_engines_agree(*model, data, size);
  return 0;
}

/// Cross-engine bit-exactness tests for the multi-sample (sample-blocked)
/// SIMD inference engine: for every compiled kernel (scalar fallback plus
/// the native AVX2/NEON one when the machine has it), blocked forward
/// values, blocked predictions, and batched accuracy must equal the
/// single-sample engine on each sample's quantize_input codes,
/// value-for-value — across random models, all four UCI datasets,
/// truncation shifts, edge layer widths, sample counts that are not a
/// multiple of the block, > 2^32 activations (64-bit lanes), and models
/// whose exact ranges sit on either side of the int32 lane edge.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "pnm/core/infer_simd.hpp"
#include "pnm/core/qmlp.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/data/scaler.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/nn/mlp.hpp"
#include "pnm/util/rng.hpp"

namespace pnm {
namespace {

constexpr std::size_t kB = simd::kSampleBlock;

/// Every ISA with a kernel on this machine (scalar always; at most one
/// native vector ISA on top).
std::vector<simd::Isa> available_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  for (const simd::Isa isa : {simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (simd::isa_available(isa)) isas.push_back(isa);
  }
  return isas;
}

Mlp random_model(const std::vector<std::size_t>& topology, std::uint64_t seed,
                 double bias_span) {
  Rng rng(seed);
  Mlp model(topology, rng);
  for (std::size_t li = 0; li < model.layer_count(); ++li) {
    for (auto& b : model.layer(li).bias) b = rng.normal(0.0, bias_span);
  }
  return model;
}

/// Blocked forward/predict/accuracy through every available kernel ==
/// single-sample engine on quantize_input's codes, value for value.
void expect_engines_agree(const QuantizedMlp& engine, const Dataset& data) {
  const QuantizedDataset qdata = quantize_dataset(data, engine.input_bits());
  std::vector<std::vector<std::int64_t>> codes;
  for (const auto& x : data.x) codes.push_back(quantize_input(x, engine.input_bits()));
  const std::size_t classes = engine.output_size();
  InferScratch ss;
  BlockScratch bs;
  std::size_t preds[kB] = {};

  for (const simd::Isa isa : available_isas()) {
    for (std::size_t b = 0; b < qdata.block_count(); ++b) {
      const std::size_t lanes = std::min(kB, qdata.size() - b * kB);
      const auto out = engine.forward_block_into(qdata.block(b), bs, isa);
      ASSERT_EQ(out.size(), classes * kB);
      for (std::size_t j = 0; j < lanes; ++j) {
        const std::size_t i = b * kB + j;
        const auto ref = engine.forward_into(codes[i], ss);
        for (std::size_t r = 0; r < classes; ++r) {
          ASSERT_EQ(out[r * kB + j], ref[r])
              << simd::isa_name(isa) << " sample " << i << " class " << r;
        }
      }
      engine.predict_block_into(qdata.block(b), lanes, bs, preds, isa);
      for (std::size_t j = 0; j < lanes; ++j) {
        const std::size_t i = b * kB + j;
        ASSERT_EQ(preds[j], engine.predict_quantized_into(codes[i], ss))
            << simd::isa_name(isa) << " sample " << i;
      }
    }
  }

  // Batched accuracy: every blocked engine agrees exactly with the
  // single-sample predictions.
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (engine.predict_quantized_into(codes[i], ss) == data.y[i]) ++correct;
  }
  const double acc_single = static_cast<double>(correct) / static_cast<double>(data.size());
  EXPECT_EQ(engine.accuracy(qdata), acc_single);
  for (const simd::Isa isa : available_isas()) {
    EXPECT_EQ(engine.accuracy(qdata, isa), acc_single) << simd::isa_name(isa);
  }
}

/// Every input pair (a, b) in [0, 2^input_bits)^2 as a dataset whose
/// quantize_input codes are exactly (a, b), labelled by `label`.
Dataset code_grid(int input_bits, std::size_t (*label)(std::int64_t, std::int64_t)) {
  const std::int64_t xmax = (std::int64_t{1} << input_bits) - 1;
  const double qmax = static_cast<double>(xmax);
  Dataset data;
  data.name = "code-grid";
  data.n_classes = 2;
  for (std::int64_t a = 0; a <= xmax; ++a) {
    for (std::int64_t b = 0; b <= xmax; ++b) {
      data.x.push_back({static_cast<double>(a) / qmax, static_cast<double>(b) / qmax});
      data.y.push_back(label(a, b));
      EXPECT_EQ(quantize_input(data.x.back(), input_bits), (std::vector<std::int64_t>{a, b}));
    }
  }
  return data;
}

Dataset scaled_named_dataset(const char* name, std::uint64_t seed) {
  Dataset data = make_named_dataset(name, seed);
  MinMaxScaler scaler;
  scaler.fit(data);
  return scaler.transform(data);
}

TEST(InferSimd, RandomModelsOnAllFourDatasetsMatchSingleSample) {
  std::uint64_t seed = 7100;
  for (const char* name : {"whitewine", "redwine", "pendigits", "seeds"}) {
    const Dataset data = scaled_named_dataset(name, 13);
    for (int bits : {2, 5, 8}) {
      const Mlp model = random_model({data.n_features(), 6, data.n_classes},
                                     ++seed, /*bias_span=*/0.5);
      const QuantizedMlp engine =
          QuantizedMlp::from_float(model, QuantSpec::uniform(2, bits, 4));
      expect_engines_agree(engine, data);
    }
  }
}

TEST(InferSimd, TruncationShiftsMatchSingleSample) {
  const Dataset data = scaled_named_dataset("seeds", 29);
  std::uint64_t seed = 7200;
  for (int shift : {1, 3, 7, 12}) {
    // Wide bias span forces negative bias codes (floor-shift edge) and
    // both weight signs through the truncating vector path.
    const Mlp model = random_model({data.n_features(), 5, data.n_classes},
                                   ++seed, /*bias_span=*/2.0);
    QuantSpec spec = QuantSpec::uniform(2, 6, 4);
    spec.acc_shift = {shift, shift};
    expect_engines_agree(QuantizedMlp::from_float(model, spec), data);
  }
}

TEST(InferSimd, EdgeWidthsAndPartialTailBlocksMatchSingleSample) {
  const Dataset full = scaled_named_dataset("seeds", 31);
  std::uint64_t seed = 7300;
  // Layer widths around the block geometry (1-wide hidden, wider-than-
  // block hidden, 3 layers) x sample counts around the block boundary
  // (1, kB - 1, kB, kB + 1, 3 * kB + 5).
  const std::vector<std::vector<std::size_t>> topologies = {
      {full.n_features(), 1, full.n_classes},
      {full.n_features(), 9, full.n_classes},
      {full.n_features(), 5, 4, full.n_classes},
  };
  for (const auto& topology : topologies) {
    const Mlp model = random_model(topology, ++seed, 0.5);
    const QuantizedMlp engine =
        QuantizedMlp::from_float(model, QuantSpec::uniform(topology.size() - 1, 5, 4));
    for (const std::size_t n :
         {std::size_t{1}, kB - 1, kB, kB + 1, 3 * kB + 5, 5 * kB + 3}) {
      Dataset subset = full;
      subset.x.assign(full.x.begin(), full.x.begin() + static_cast<std::ptrdiff_t>(n));
      subset.y.assign(full.y.begin(), full.y.begin() + static_cast<std::ptrdiff_t>(n));
      expect_engines_agree(engine, subset);
    }
  }
}

TEST(InferSimd, LargeActivationsRunInInt64Lanes) {
  // Identity hidden layer with huge bias codes: layer-2 inputs exceed
  // 2^32 in both signs, so the model runs the portable int64 kernel.
  QuantizedLayer l1;
  l1.set_dense(2, 2, {3, -2, -3, 1});
  l1.bias = {std::int64_t{3} << 33, -(std::int64_t{5} << 33)};
  l1.weight_bits = 4;
  l1.act = Activation::kIdentity;
  l1.weight_scale = 0.1;
  QuantizedLayer l2;
  l2.set_dense(2, 2, {5, -7, -6, 4});
  l2.bias = {11, -13};
  l2.weight_bits = 4;
  l2.act = Activation::kIdentity;
  l2.weight_scale = 0.1;

  for (int shift : {0, 2, 9}) {
    auto layers = std::vector<QuantizedLayer>{l1, l2};
    layers[0].acc_shift = shift;
    layers[1].acc_shift = shift;
    const QuantizedMlp engine = QuantizedMlp::from_layers(std::move(layers), 4);
    EXPECT_EQ(engine.lane_bits(), 64);

    expect_engines_agree(engine, code_grid(4, [](std::int64_t a, std::int64_t b) {
                           return static_cast<std::size_t>((a + b) % 2);
                         }));
  }
}

QuantizedLayer dense_layer(std::size_t out_f, std::size_t in_f, const std::vector<int>& codes,
                           std::vector<std::int64_t> bias, int acc_shift, Activation act) {
  QuantizedLayer l;
  l.set_dense(out_f, in_f, codes);
  l.bias = std::move(bias);
  l.weight_bits = 4;  // magnitudes up to 7
  l.acc_shift = acc_shift;
  l.act = act;
  l.weight_scale = 0.1;
  return l;
}

constexpr std::int64_t kTwo31 = std::int64_t{1} << 31;

/// One model on each side of the int32 lane edge: its binding bound (a
/// partial sum, a product under acc_shift > 0, or a negative partial sum)
/// is exactly the extreme int32 value, or one past it.  Inputs are 4-bit,
/// so x <= 15 and 7 * x <= 105.
struct EdgeCase {
  const char* name;
  int lane_bits;
  std::vector<QuantizedLayer> layers;
};

std::vector<EdgeCase> edge_cases() {
  std::vector<EdgeCase> cases;
  // Partial sum: bias + 7 * 15 peaks at 2^31 - 1, or at 2^31.
  for (const std::int64_t peak : {kTwo31 - 1, kTwo31}) {
    const std::int64_t b = peak - 105;
    cases.push_back({peak < kTwo31 ? "partial sum 2^31 - 1" : "partial sum 2^31",
                     peak < kTwo31 ? 32 : 64,
                     {dense_layer(3, 2, {7, 0, 0, 7, -3, 5}, {b, b, 2}, 0,
                                  Activation::kIdentity)}});
  }
  // Product under acc_shift 1: the hidden layer peaks at h, which layer 2
  // multiplies by m before the shift; m * h is 1 * (2^31 - 1), or 2 * 2^30.
  for (const auto& [m, h] : {std::pair<int, std::int64_t>{1, kTwo31 - 1},
                             std::pair<int, std::int64_t>{2, kTwo31 / 2}}) {
    const std::int64_t b = h - 105;
    // Row 2's bias keeps its sum (bias >> 1) - ((m * h0) >> 1) small.
    const std::int64_t b2 = m == 1 ? kTwo31 - 1 : kTwo31 - 2;
    cases.push_back({m == 1 ? "product 2^31 - 1" : "product 2^31", m == 1 ? 32 : 64,
                     {dense_layer(2, 2, {7, 0, 0, 7}, {b, b}, 0, Activation::kRelu),
                      dense_layer(3, 2, {m, 0, 0, m, -m, 0}, {0, -1, b2}, 1,
                                  Activation::kIdentity)}});
  }
  // Negative partial sum: bias - 7 * 15 bottoms out at -2^31, or one below.
  for (const std::int64_t floor : {-kTwo31, -kTwo31 - 1}) {
    const std::int64_t b = floor + 105;
    cases.push_back({floor == -kTwo31 ? "partial sum -2^31" : "partial sum -2^31 - 1",
                     floor == -kTwo31 ? 32 : 64,
                     {dense_layer(3, 2, {-7, 0, 0, -7, 2, 3}, {b, b, b + 50}, 0,
                                  Activation::kIdentity)}});
  }
  return cases;
}

TEST(InferSimd, LaneWidthFollowsExactRangesAtTheInt32Edge) {
  for (EdgeCase& c : edge_cases()) {
    SCOPED_TRACE(c.name);
    const QuantizedMlp engine = QuantizedMlp::from_layers(std::move(c.layers), 4);
    EXPECT_EQ(engine.lane_bits(), c.lane_bits);
    expect_engines_agree(engine, code_grid(4, [](std::int64_t a, std::int64_t b) {
                           return static_cast<std::size_t>(a < b ? 1 : 0);
                         }));
  }
  // The bounds sit where the cases say: the first model's sum reaches
  // 2^31 - 1 exactly, and the negative one's reaches -2^31.
  const auto cases = edge_cases();
  const auto first = QuantizedMlp::from_layers(cases[0].layers, 4).neuron_preact_ranges();
  EXPECT_EQ(first[0][0].hi, kTwo31 - 1);
  const auto neg = QuantizedMlp::from_layers(cases[4].layers, 4).neuron_preact_ranges();
  EXPECT_EQ(neg[0][0].lo, -kTwo31);
}

TEST(InferSimd, FullyPrunedRowsMatchSingleSample) {
  // A row with no CSR entries (all-zero weights) and an all-clamping ReLU
  // row, through every kernel.
  QuantizedLayer l1;
  l1.set_dense(3, 2, {0, 0, -3, -1, 2, -2});
  l1.bias = {0, -1, 2};
  l1.weight_bits = 3;
  l1.act = Activation::kRelu;
  l1.weight_scale = 0.5;
  QuantizedLayer l2;
  l2.set_dense(2, 3, {1, -2, 3, 0, 0, 0});
  l2.bias = {-1, 0};
  l2.weight_bits = 3;
  l2.act = Activation::kIdentity;
  l2.weight_scale = 0.5;
  const QuantizedMlp engine =
      QuantizedMlp::from_layers({std::move(l1), std::move(l2)}, 3);

  expect_engines_agree(engine, code_grid(3, [](std::int64_t a, std::int64_t) {
                         return static_cast<std::size_t>(a % 2);
                       }));
}

TEST(InferSimd, BlockedLayoutRoundTripsAndTailIsZero) {
  const Dataset data = scaled_named_dataset("redwine", 17);
  Dataset subset = data;
  subset.x.resize(kB + 3);  // forces a partial tail block
  subset.y.resize(kB + 3);
  const QuantizedDataset q = quantize_dataset(subset, 4);
  ASSERT_EQ(q.block_count(), 2u);
  ASSERT_EQ(q.xb.size(), 2 * q.n_features * kB);
  for (std::size_t i = 0; i < q.size(); ++i) {
    const auto expected = quantize_input(subset.x[i], 4);
    for (std::size_t f = 0; f < q.n_features; ++f) {
      ASSERT_EQ(q.block(i / kB)[f * kB + i % kB], expected[f]);
    }
  }
  // Tail lanes are zero-filled.
  for (std::size_t j = q.size() % kB; j < kB; ++j) {
    for (std::size_t f = 0; f < q.n_features; ++f) {
      ASSERT_EQ(q.block(1)[f * kB + j], 0);
    }
  }
}

TEST(InferSimd, DispatchReportsAvailabilityHonestly) {
  EXPECT_TRUE(simd::isa_available(simd::Isa::kScalar));
  EXPECT_NE(simd::layer_block_kernel(simd::Isa::kScalar), nullptr);
  // Whatever the dispatcher picked must actually have a kernel.
  EXPECT_TRUE(simd::isa_available(simd::active_isa()));
  EXPECT_NE(simd::layer_block_kernel(simd::active_isa()), nullptr);
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kNeon), "neon");
  // At most one native vector ISA exists per machine.
  EXPECT_FALSE(simd::isa_available(simd::Isa::kAvx2) &&
               simd::isa_available(simd::Isa::kNeon));
  // Unavailable ISAs are a loud error, not a silent fallback.
  for (const simd::Isa isa : {simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (simd::isa_available(isa)) continue;
    EXPECT_EQ(simd::layer_block_kernel(isa), nullptr);
    const Dataset data = scaled_named_dataset("seeds", 3);
    const Mlp model = random_model({data.n_features(), 4, data.n_classes}, 5, 0.2);
    const QuantizedMlp engine =
        QuantizedMlp::from_float(model, QuantSpec::uniform(2, 4, 4));
    EXPECT_THROW((void)engine.accuracy(quantize_dataset(data, 4), isa),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace pnm

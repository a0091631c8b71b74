/// Golden bit-exactness tests for the flat (CSR) quantized-inference
/// engine: every output of the packed kernels — forward values, argmax
/// predictions, Dataset accuracy, and the blocked QuantizedDataset
/// accuracy on the scalar and the dispatched kernel — must match the seed
/// commit's dense implementation value-for-value, across random models,
/// all four UCI datasets, and the truncation / ReLU / negative-bias edge
/// cases.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "dense_reference.hpp"
#include "pnm/core/qmlp.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/data/scaler.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/nn/mlp.hpp"
#include "pnm/util/rng.hpp"

namespace pnm {
namespace {

Mlp random_model(const std::vector<std::size_t>& topology, std::uint64_t seed,
                 double bias_span) {
  Rng rng(seed);
  Mlp model(topology, rng);
  // He-normal init leaves biases at zero; spread them (negative included)
  // so the bias >> s floor path is exercised on both signs.
  for (std::size_t li = 0; li < model.layer_count(); ++li) {
    for (auto& b : model.layer(li).bias) b = rng.normal(0.0, bias_span);
  }
  return model;
}

void expect_bit_identical(const QuantizedMlp& engine, const Dataset& data) {
  const DenseReferenceModel reference(engine);
  InferScratch scratch;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto xq = quantize_input(data.x[i], engine.input_bits());
    // Full forward values, not just the argmax.
    const auto seed_out = reference.forward(xq);
    const auto engine_out = engine.forward(xq);
    ASSERT_EQ(seed_out, engine_out) << "sample " << i;
    // Allocation-free single-sample path.
    ASSERT_EQ(engine.predict_quantized_into(xq, scratch), reference.predict(data.x[i]))
        << "sample " << i;
  }
  // Both accuracy overloads, the blocked one on the scalar and the
  // dispatched kernel, value-for-value (not approximately).
  const double seed_acc = reference.accuracy(data);
  ASSERT_EQ(engine.accuracy(data), seed_acc);
  const QuantizedDataset qdata = quantize_dataset(data, engine.input_bits());
  ASSERT_EQ(engine.accuracy(qdata), seed_acc);
  ASSERT_EQ(engine.accuracy(qdata, simd::Isa::kScalar), seed_acc);
}

TEST(InferGolden, RandomModelsOnAllFourDatasetsAreBitExact) {
  std::uint64_t seed = 900;
  for (const char* name : {"whitewine", "redwine", "pendigits", "seeds"}) {
    Dataset data = make_named_dataset(name, 11);
    MinMaxScaler scaler;
    scaler.fit(data);
    data = scaler.transform(data);

    for (int bits : {2, 5, 8}) {
      const Mlp model = random_model({data.n_features(), 6, data.n_classes},
                                     ++seed, /*bias_span=*/0.5);
      QuantSpec spec = QuantSpec::uniform(2, bits, 4);
      expect_bit_identical(QuantizedMlp::from_float(model, spec), data);
    }
  }
}

/// The scenario matrix's "wider/deeper" regime: a 64-128-64 stack is far
/// past the printed-scale defaults (4-10 hidden units), so the blocked
/// multi-sample kernels cross block boundaries many times per layer and
/// the accumulators see much longer dot products.  Every inference path —
/// per-sample forward and predict, Dataset accuracy, and the blocked
/// QuantizedDataset accuracy on both kernels — must still match the seed
/// commit's dense reference value-for-value.
TEST(InferGolden, WideDeepTopologyIsBitExactOnAllPaths) {
  Dataset data = make_named_dataset("seeds", 31);
  MinMaxScaler scaler;
  scaler.fit(data);
  data = scaler.transform(data);

  std::uint64_t seed = 700;
  for (int bits : {3, 6}) {
    const Mlp model =
        random_model({data.n_features(), 64, 128, 64, data.n_classes}, ++seed,
                     /*bias_span=*/0.5);
    const QuantizedMlp engine =
        QuantizedMlp::from_float(model, QuantSpec::uniform(4, bits, 4));
    expect_bit_identical(engine, data);
  }
}

TEST(InferGolden, TruncationShiftsStayBitExact) {
  Dataset data = make_named_dataset("seeds", 21);
  MinMaxScaler scaler;
  scaler.fit(data);
  data = scaler.transform(data);

  std::uint64_t seed = 400;
  for (int shift : {1, 2, 4, 7}) {
    // Large bias span makes negative accumulator-unit bias codes certain,
    // covering the arithmetic (floor) right-shift of negative biases.
    const Mlp model = random_model({data.n_features(), 5, data.n_classes},
                                   ++seed, /*bias_span=*/2.0);
    QuantSpec spec = QuantSpec::uniform(2, 6, 4);
    spec.acc_shift = {shift, shift};
    const QuantizedMlp engine = QuantizedMlp::from_float(model, spec);
    // Confirm the edge case is actually present, then compare.
    bool has_negative_bias = false;
    for (const auto& l : engine.layers()) {
      for (std::int64_t b : l.bias) has_negative_bias |= (b < 0);
    }
    EXPECT_TRUE(has_negative_bias) << "shift " << shift;
    expect_bit_identical(engine, data);
  }
}

TEST(InferGolden, ReluClampAndPrunedRowsAreBitExact) {
  // Hand-built codes: a fully-pruned row (no CSR entries), an
  // all-negative row (ReLU always clamps), and mixed signs.
  DenseLayer l1;
  l1.weights = Matrix(3, 2, {0.0, 0.0, -3.0, -1.0, 2.0, -2.0});
  l1.bias = {0.0, -1.0, 0.5};
  l1.act = Activation::kRelu;
  DenseLayer l2;
  l2.weights = Matrix(2, 3, {1.0, -2.0, 3.0, 0.0, 0.0, 0.0});
  l2.bias = {-0.25, 0.0};
  l2.act = Activation::kIdentity;
  const Mlp model({l1, l2});

  for (int shift : {0, 1, 3}) {
    QuantSpec spec = QuantSpec::uniform(2, 3, 3);
    spec.acc_shift = {shift, shift};
    const QuantizedMlp engine = QuantizedMlp::from_float(model, spec);
    const DenseReferenceModel reference(engine);
    const std::int64_t xmax = (1 << 3) - 1;
    for (std::int64_t a = 0; a <= xmax; ++a) {
      for (std::int64_t b = 0; b <= xmax; ++b) {
        const std::vector<std::int64_t> xq = {a, b};
        ASSERT_EQ(engine.forward(xq), reference.forward(xq))
            << "shift " << shift << " input (" << a << ", " << b << ")";
      }
    }
  }
}

TEST(InferGolden, CsrAccessorsRoundTripTheDenseLayout) {
  const Mlp model = random_model({5, 4, 3}, 55, 0.3);
  const QuantizedMlp q =
      QuantizedMlp::from_float(model, QuantSpec::uniform(2, 4, 4));
  for (const auto& layer : q.layers()) {
    const auto dense = layer.dense_weights();
    std::size_t nnz = 0;
    for (std::size_t r = 0; r < layer.out_features(); ++r) {
      for (std::size_t c = 0; c < layer.in_features(); ++c) {
        ASSERT_EQ(layer.weight(r, c), dense[r][c]);
        nnz += dense[r][c] != 0 ? 1 : 0;
      }
    }
    ASSERT_EQ(layer.nonzeros(), nnz);
    // Stored entries carry consistent magnitude/sign/signed-code forms.
    for (std::size_t k = 0; k < layer.nonzeros(); ++k) {
      ASSERT_GT(layer.w_mag[k], 0);
      ASSERT_EQ(layer.code(k), layer.w_val[k]);
      ASSERT_EQ(layer.w_val[k], layer.w_neg[k] ? -layer.w_mag[k] : layer.w_mag[k]);
    }
  }
}

TEST(InferGolden, QuantizedDatasetMatchesPerSampleQuantization) {
  Dataset data = make_named_dataset("redwine", 5);
  MinMaxScaler scaler;
  scaler.fit(data);
  data = scaler.transform(data);
  constexpr std::size_t kB = simd::kSampleBlock;
  for (int input_bits : {1, 4, 9}) {
    const QuantizedDataset qdata = quantize_dataset(data, input_bits);
    EXPECT_EQ(qdata.size(), data.size());
    EXPECT_EQ(qdata.n_features, data.n_features());
    EXPECT_EQ(qdata.n_classes, data.n_classes);
    EXPECT_EQ(qdata.input_bits, input_bits);
    for (std::size_t i = 0; i < data.size(); ++i) {
      const auto expected = quantize_input(data.x[i], input_bits);
      for (std::size_t f = 0; f < data.n_features(); ++f) {
        ASSERT_EQ(qdata.block(i / kB)[f * kB + i % kB], expected[f])
            << "sample " << i << " feature " << f;
      }
      ASSERT_EQ(qdata.y[i], data.y[i]);
    }
  }
}

TEST(InferGolden, AccuracyRejectsMismatchedQuantization) {
  Dataset data = make_named_dataset("seeds", 3);
  MinMaxScaler scaler;
  scaler.fit(data);
  data = scaler.transform(data);
  const Mlp model = random_model({data.n_features(), 4, data.n_classes}, 8, 0.2);
  const QuantizedMlp q =
      QuantizedMlp::from_float(model, QuantSpec::uniform(2, 4, /*input_bits=*/4));
  const QuantizedDataset wrong = quantize_dataset(data, /*input_bits=*/6);
  EXPECT_THROW((void)q.accuracy(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace pnm

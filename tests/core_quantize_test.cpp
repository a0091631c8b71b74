/// Tests for symmetric uniform quantization and QAT: bounds, the two
/// composition invariants (zero stays zero, equal stays equal), and the
/// straight-through-estimator training behaviour.

#include "pnm/core/quantize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "pnm/data/synth.hpp"
#include "pnm/data/scaler.hpp"
#include "pnm/nn/metrics.hpp"

namespace pnm {
namespace {

TEST(QuantSpec, UniformFactoryAndValidation) {
  const auto spec = QuantSpec::uniform(3, 4, 5);
  EXPECT_EQ(spec.weight_bits, (std::vector<int>{4, 4, 4}));
  EXPECT_EQ(spec.input_bits, 5);
  EXPECT_NO_THROW(spec.validate(3));
  EXPECT_THROW(spec.validate(2), std::invalid_argument);
  EXPECT_THROW(QuantSpec::uniform(2, 1), std::invalid_argument);
  EXPECT_THROW(QuantSpec::uniform(2, 17), std::invalid_argument);
}

TEST(Quantize, ScaleMapsAbsMaxToQmax) {
  Matrix w(1, 3, {0.5, -2.0, 1.0});
  const double scale = quantization_scale(w, 4);  // qmax = 7
  EXPECT_NEAR(scale, 2.0 / 7.0, 1e-12);
  const auto codes = quantize_codes(w, 4, scale);
  EXPECT_EQ(codes[1], -7);
}

TEST(Quantize, AllZeroMatrixHasZeroScale) {
  Matrix w(2, 2);
  EXPECT_EQ(quantization_scale(w, 4), 0.0);
  const auto codes = quantize_codes(w, 4, 0.0);
  for (int c : codes) EXPECT_EQ(c, 0);
}

TEST(Quantize, CodesStayInSymmetricRange) {
  Rng rng(1);
  Matrix w = he_normal(10, 10, rng);
  for (int bits = 2; bits <= 8; ++bits) {
    const double scale = quantization_scale(w, bits);
    const int qmax = (1 << (bits - 1)) - 1;
    for (int c : quantize_codes(w, bits, scale)) {
      EXPECT_LE(std::abs(c), qmax);
    }
  }
}

TEST(Quantize, ZeroWeightsStayZero) {
  // Composition with pruning: fake-quantization must not resurrect zeros.
  Matrix w(2, 2, {0.0, 1.0, -0.7, 0.0});
  const Matrix q = fake_quantize(w, 3);
  EXPECT_EQ(q(0, 0), 0.0);
  EXPECT_EQ(q(1, 1), 0.0);
}

TEST(Quantize, EqualValuesGetEqualCodes) {
  // Composition with clustering: shared values stay shared.
  Matrix w(2, 2, {0.42, -1.0, 0.42, 0.42});
  const Matrix q = fake_quantize(w, 4);
  EXPECT_EQ(q(0, 0), q(1, 0));
  EXPECT_EQ(q(0, 0), q(1, 1));
}

TEST(Quantize, ErrorBoundedByHalfScale) {
  Rng rng(2);
  Matrix w = he_normal(8, 8, rng);
  for (int bits : {3, 5, 8}) {
    const double scale = quantization_scale(w, bits);
    const Matrix q = fake_quantize(w, bits);
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_LE(std::fabs(q.raw()[i] - w.raw()[i]), scale * 0.5 + 1e-12);
    }
  }
}

TEST(Quantize, MoreBitsNeverIncreaseError) {
  Rng rng(3);
  Matrix w = he_normal(6, 6, rng);
  double prev_err = 1e9;
  for (int bits = 2; bits <= 8; ++bits) {
    const Matrix q = fake_quantize(w, bits);
    double err = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) {
      err += std::fabs(q.raw()[i] - w.raw()[i]);
    }
    EXPECT_LE(err, prev_err + 1e-9) << "bits=" << bits;
    prev_err = err;
  }
}

TEST(Quantize, FakeQuantizeMlpTouchesOnlyWeights) {
  Rng rng(4);
  Mlp master({3, 4, 2}, rng);
  master.layer(0).bias = {0.5, -0.5, 0.25, 0.0};
  Mlp view = master;
  fake_quantize_mlp(master, view, QuantSpec::uniform(2, 3));
  EXPECT_EQ(view.layer(0).bias, master.layer(0).bias);  // biases untouched
  EXPECT_NE(view.layer(0).weights, master.layer(0).weights);
}

TEST(QuantizeInput, RoundsToUnsignedCodes) {
  const auto q = quantize_input({0.0, 1.0, 0.5, 0.26}, 4);
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[1], 15);
  EXPECT_EQ(q[2], 8);  // 0.5 * 15 = 7.5 rounds to 8
  EXPECT_EQ(q[3], 4);
}

TEST(QuantizeInput, ClampsOutOfRangeInputs) {
  const auto q = quantize_input({-3.0, 42.0}, 4);
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[1], 15);
}

// The encoder rounds inline; it must equal std::llround(clamp(x) * qmax)
// for every input it can meet, at every bit width.  The inputs are the
// rounding edges (each half-way point and its two neighbours), the clamp
// edges, signed zeros, infinities and denormals.  NaN has no llround
// reference: it maps to code 0.
TEST(QuantizeInput, StagingEqualsLlroundForEveryBitWidth) {
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (int bits = 1; bits <= 16; ++bits) {
    SCOPED_TRACE(bits);
    const double qmax = static_cast<double>((1 << bits) - 1);
    std::vector<double> x = {0.0,   -0.0,     inf,    -inf,  denorm, -denorm,
                             1e-300, -1e-300, -0.25, -1.0,  1.0,    1.5,
                             1e300,  std::nextafter(1.0, 2.0),  std::nextafter(0.0, 1.0)};
    for (double k = 0.0; k < qmax; k += 1.0) {
      const double half = (k + 0.5) / qmax;
      x.push_back(std::nextafter(half, 0.0));
      x.push_back(half);
      x.push_back(std::nextafter(half, 1.0));
    }
    const std::vector<std::int64_t> q = quantize_input(x, bits);
    ASSERT_EQ(q.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::int64_t want = std::llround(std::clamp(x[i], 0.0, 1.0) * qmax);
      ASSERT_EQ(q[i], want) << "x=" << x[i];
    }
    const std::vector<std::int64_t> nan =
        quantize_input({std::numeric_limits<double>::quiet_NaN(), -std::nan("")}, bits);
    EXPECT_EQ(nan, (std::vector<std::int64_t>{0, 0}));
  }
}

TEST(QuantizeInput, BadBitsThrow) {
  EXPECT_THROW(quantize_input({0.5}, 0), std::invalid_argument);
  EXPECT_THROW(quantize_input({0.5}, 17), std::invalid_argument);
}

/// QAT end-to-end: training with the STE view at low precision must beat
/// post-training quantization of a float-trained model.
TEST(Qat, BeatsPostTrainingQuantizationAtLowBits) {
  const Dataset data = [] {
    SynthConfig cfg;
    cfg.n_features = 8;
    cfg.n_classes = 4;
    cfg.n_samples = 800;
    cfg.class_separation = 1.6;
    Rng rng(10);
    return make_synthetic(cfg, rng);
  }();
  Rng rng(11);
  DataSplit split = stratified_split(data, 0.7, 0.0, 0.3, rng);
  MinMaxScaler scaler;
  scale_split(split, scaler);

  TrainConfig tc;
  tc.epochs = 40;
  Mlp float_net({8, 6, 4}, rng);
  {
    Rng train_rng(12);
    Trainer(tc).fit(float_net, split.train, train_rng);
  }
  const QuantSpec spec = QuantSpec::uniform(2, 2, 4);  // brutal 2-bit weights

  // Post-training quantization.
  Mlp ptq = float_net;
  fake_quantize_mlp(float_net, ptq, spec);
  const double acc_ptq = accuracy(ptq, split.test);

  // QAT fine-tuning from the same float model.
  Mlp qat = float_net;
  TrainConfig ft = tc;
  ft.epochs = 15;
  ft.lr = tc.lr * 0.3;
  Trainer trainer(ft);
  trainer.set_weight_view(make_qat_view(spec));
  {
    Rng ft_rng(13);
    trainer.fit(qat, split.train, ft_rng);
  }
  Mlp qat_view = qat;
  fake_quantize_mlp(qat, qat_view, spec);
  const double acc_qat = accuracy(qat_view, split.test);

  EXPECT_GE(acc_qat, acc_ptq - 0.02);  // QAT at least matches PTQ...
  EXPECT_GT(acc_qat, 0.5);             // ...and is far above chance
}

/// Parameterized sweep: the paper's 2..7-bit range all stay functional.
class QuantBitsSweep : public ::testing::TestWithParam<int> {};

TEST_P(QuantBitsSweep, FakeQuantizedModelStillPredicts) {
  const int bits = GetParam();
  Rng rng(20);
  Mlp net({5, 6, 3}, rng);
  Mlp view = net;
  fake_quantize_mlp(net, view, QuantSpec::uniform(2, bits));
  // Distinct weight values are bounded by the code count.
  for (std::size_t li = 0; li < view.layer_count(); ++li) {
    std::set<double> distinct(view.layer(li).weights.raw().begin(),
                              view.layer(li).weights.raw().end());
    EXPECT_LE(distinct.size(), (1U << bits));
  }
  EXPECT_NO_THROW((void)view.predict({0.1, 0.2, 0.3, 0.4, 0.5}));
}

INSTANTIATE_TEST_SUITE_P(PaperRange, QuantBitsSweep, ::testing::Range(2, 8));

}  // namespace
}  // namespace pnm

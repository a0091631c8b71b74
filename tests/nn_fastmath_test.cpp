/// Error-bound and parity tests for the declared accuracy-neutral
/// fast-math layer (nn/fastmath.hpp) and the fast softmax cross-entropy
/// gradient built on it.  The documented kFastExpMaxRelError constant is
/// the contract: it is measured here against libm over dense grids, and
/// the gradient and fine-tuning consumers are checked against the libm
/// reference (tests/trainer_reference.hpp) within declared (not
/// bit-identical) tolerances.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "pnm/data/scaler.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/nn/fastmath.hpp"
#include "pnm/nn/metrics.hpp"
#include "pnm/nn/mlp.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/util/rng.hpp"
#include "trainer_reference.hpp"

namespace pnm {
namespace {

double rel_error(double got, double want) {
  if (want == 0.0) return got == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  return std::abs(got / want - 1.0);
}

TEST(FastMath, ExpStaysInsideDocumentedBoundOnDenseGrid) {
  // 560k points across the full softmax-relevant range [-700, 700].
  double max_rel = 0.0;
  double worst_x = 0.0;
  for (double x = -700.0; x <= 700.0; x += 0.0025) {
    const double r = rel_error(fast_exp(x), std::exp(x));
    if (r > max_rel) {
      max_rel = r;
      worst_x = x;
    }
  }
  EXPECT_LE(max_rel, kFastExpMaxRelError) << "worst at x = " << worst_x;
}

TEST(FastMath, ExpRandomPointsAndExactAnchors) {
  Rng rng(404);
  double max_rel = 0.0;
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.uniform(-700.0, 700.0);
    max_rel = std::max(max_rel, rel_error(fast_exp(x), std::exp(x)));
  }
  EXPECT_LE(max_rel, kFastExpMaxRelError);
  EXPECT_EQ(fast_exp(0.0), 1.0);  // r = 0, scale = 2^0: exact
  EXPECT_EQ(fast_exp(-800.0), 0.0);  // declared flush-to-zero below -708
  EXPECT_EQ(fast_exp(-std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_TRUE(std::isinf(fast_exp(800.0)));  // monotone saturation
  EXPECT_TRUE(std::isnan(fast_exp(std::numeric_limits<double>::quiet_NaN())));
}

/// fast_exp rounds k = floor(x*log2e + 1/2) inline; the result must be the
/// same bits as the libm-floor formulation it replaced, over the whole
/// clamped range and at the clamp edges.
double fast_exp_libm_floor(double x) {
  const double hi = x > kFastExpOverflow ? kFastExpOverflow : x;
  const double lo = hi < kFastExpUnderflow ? kFastExpUnderflow : hi;
  const double kd = std::floor(lo * fastexp::kLog2E + 0.5);
  const double r = (lo - kd * fastexp::kLn2Hi) - kd * fastexp::kLn2Lo;
  double p = fastexp::kPoly[0];
  for (std::size_t i = 1; i < std::size(fastexp::kPoly); ++i) p = p * r + fastexp::kPoly[i];
  const auto k = static_cast<std::int64_t>(kd);
  const double e = p * std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52);
  return x < kFastExpUnderflow ? 0.0 : e;
}

TEST(FastMath, InlineFloorMatchesLibmFloorBitForBit) {
  std::vector<double> xs = {0.0,   -0.0, kFastExpOverflow, kFastExpUnderflow, -708.5,
                            710.0, 1e6,  -1e6,             0.5 / fastexp::kLog2E};
  for (double x = -720.0; x <= 720.0; x += 0.00731) xs.push_back(x);
  // Points where x*log2e + 1/2 lands on or next to an integer, the only
  // inputs where a floor could round the wrong way.
  for (int k = -1021; k <= 1024; ++k) {
    const double x = (k - 0.5) / fastexp::kLog2E;
    xs.push_back(x);
    xs.push_back(std::nextafter(x, -1e9));
    xs.push_back(std::nextafter(x, 1e9));
  }
  for (double x : xs) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(fast_exp(x)),
              std::bit_cast<std::uint64_t>(fast_exp_libm_floor(x)))
        << "x = " << x;
  }
}

TEST(FastMath, BatchExpMatchesScalarAndAllowsAliasing) {
  Rng rng(405);
  std::vector<double> x(1537);
  for (auto& v : x) v = rng.uniform(-720.0, 710.0);
  std::vector<double> out(x.size());
  fast_exp(x.data(), out.data(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(out[i], fast_exp(x[i])) << "i = " << i;
  }
  std::vector<double> inplace = x;
  fast_exp(inplace.data(), inplace.data(), inplace.size());
  EXPECT_EQ(inplace, out);
}

TEST(FastMath, FastSoftmaxMatchesReferenceWithinDeclaredTolerance) {
  Rng rng(406);
  std::vector<double> ref_grad;
  std::vector<double> fast_grad;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial % 9);
    std::vector<double> logits(n);
    const double span = (trial % 3 == 0) ? 1e4 : 10.0;  // extreme + typical
    for (auto& z : logits) z = rng.uniform(-span, span);
    const std::size_t label = static_cast<std::size_t>(trial) % n;

    reference::softmax_cross_entropy(logits, label, &ref_grad);
    reference::softmax_grad_fast(logits, label, fast_grad);

    ASSERT_EQ(fast_grad.size(), ref_grad.size());
    for (std::size_t i = 0; i < n; ++i) {
      // Gradient entries live in [-1, 1]; absolute tolerance is the
      // meaningful one.
      ASSERT_NEAR(fast_grad[i], ref_grad[i], 1e-10) << "trial " << trial << " i " << i;
    }
  }
}

TEST(FastMath, FastSoftmaxRejectsBadLabel) {
  std::vector<double> grad;
  EXPECT_THROW(reference::softmax_grad_fast({0.0, 1.0}, 2, grad), std::invalid_argument);
}

TEST(FastMath, FineTuningParityLibmVsFast) {
  // The front-quality form of the gate at trainer scale: the same
  // fine-tuning run under the libm softmax (the reference loop's blocked
  // libm gradient) and under production's fast math must land at the same
  // quality (accuracy and libm mean loss of the trained models within the
  // declared tolerances), even though the weight trajectories are not
  // bit-identical.
  Dataset data = make_named_dataset("seeds", 77);
  MinMaxScaler scaler;
  scaler.fit(data);
  data = scaler.transform(data);

  TrainConfig config;
  config.epochs = 25;
  config.lr = 5e-3;

  const auto run = [&](bool fast) {
    Rng init(1234);
    Mlp model({data.n_features(), 8, data.n_classes}, init);
    Rng rng(99);
    if (fast) {
      Trainer(config).fit(model, data, rng);
    } else {
      reference::fit(model, data, rng, config, reference::Gradient::kBlockedLibm);
    }
    return std::pair<double, double>(accuracy(model, data),
                                     reference::mean_cross_entropy(model, data));
  };

  const auto [acc_libm, loss_libm] = run(false);
  const auto [acc_fast, loss_fast] = run(true);
  EXPECT_GE(acc_libm, 0.8);
  EXPECT_GE(acc_fast, 0.8);
  EXPECT_NEAR(acc_fast, acc_libm, 0.05);
  EXPECT_NEAR(loss_fast, loss_libm, 0.05 * (1.0 + std::abs(loss_libm)));
}

}  // namespace
}  // namespace pnm

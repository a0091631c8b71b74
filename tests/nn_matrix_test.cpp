/// Tests for the dense matrix substrate.

#include "pnm/nn/matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "pnm/nn/dense_simd.hpp"
#include "pnm/util/rng.hpp"
#include "trainer_reference.hpp"

namespace pnm {
namespace {

TEST(Matrix, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3U);
  EXPECT_EQ(m.cols(), 4U);
  EXPECT_EQ(m.size(), 12U);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(Matrix, ExplicitDataRowMajor) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 2), 3.0);
  EXPECT_EQ(m(1, 0), 4.0);
  EXPECT_EQ(m(1, 2), 6.0);
}

TEST(Matrix, ExplicitDataSizeMismatchThrows) {
  EXPECT_THROW(Matrix(2, 3, {1, 2, 3}), std::invalid_argument);
}

TEST(Matrix, MatvecComputesProduct) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  std::vector<double> x = {1, 0, -1};
  std::vector<double> y;
  m.matvec(x, y);
  ASSERT_EQ(y.size(), 2U);
  EXPECT_EQ(y[0], 1.0 - 3.0);
  EXPECT_EQ(y[1], 4.0 - 6.0);
}

TEST(Matrix, MatvecRejectsBadSize) {
  Matrix m(2, 3);
  std::vector<double> x = {1, 2};
  std::vector<double> y;
  EXPECT_THROW(m.matvec(x, y), std::invalid_argument);
}

TEST(Matrix, MatvecTransposedComputesProduct) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  std::vector<double> x = {1, 2};  // row-space vector
  std::vector<double> y;
  reference::matvec_transposed(m, x, y);
  ASSERT_EQ(y.size(), 3U);
  EXPECT_EQ(y[0], 1.0 + 8.0);
  EXPECT_EQ(y[1], 2.0 + 10.0);
  EXPECT_EQ(y[2], 3.0 + 12.0);
}

TEST(Matrix, AddOuterIsRankOneUpdate) {
  Matrix m(2, 3);
  reference::add_outer(m, 2.0, {1, 2}, {3, 4, 5});
  EXPECT_EQ(m(0, 0), 6.0);
  EXPECT_EQ(m(0, 2), 10.0);
  EXPECT_EQ(m(1, 1), 16.0);
}

TEST(Matrix, AbsMaxAndZeroCount) {
  Matrix m(2, 2, {0.0, -7.5, 2.0, 0.0});
  EXPECT_EQ(m.abs_max(), 7.5);
  EXPECT_EQ(m.zero_count(), 2U);
  Matrix empty;
  EXPECT_EQ(empty.abs_max(), 0.0);
}

/// The fold abs_max is defined by: m = std::max(m, |e|) from +0.0.
double serial_abs_max(const std::vector<double>& v) {
  double m = 0.0;
  for (double e : v) m = std::max(m, std::fabs(e));
  return m;
}

/// Every kernel table's abs_max, and Matrix::abs_max through the active
/// one, return the serial fold's bits for every size 0..67 (the vector
/// lanes, their 4-wide tail and the scalar tail), with NaN (skipped),
/// -0.0 (+0.0 either way), infinities and subnormals at varying places.
TEST(Matrix, AbsMaxEqualsSerialFoldBitForBit) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double sub = std::numeric_limits<double>::denorm_min();
  std::vector<const simd::DenseKernels*> tables;
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kNeon}) {
    if (const simd::DenseKernels* t = simd::dense_kernels_for(isa)) tables.push_back(t);
  }
  Rng rng(41);
  for (std::size_t n = 0; n <= 67; ++n) {
    std::vector<std::vector<double>> cases;
    std::vector<double> v(n);
    for (double& e : v) e = rng.normal();
    cases.push_back(v);
    cases.push_back(std::vector<double>(n, -0.0));
    if (n > 0) {
      std::vector<double> tail = v;  // the largest magnitude in the last slot
      tail[n - 1] = -9.0;
      cases.push_back(tail);
      std::vector<double> nans = v;
      for (std::size_t i = n % 3; i < n; i += 5) nans[i] = i % 2 == 0 ? nan : -nan;
      cases.push_back(nans);
      std::vector<double> all_nan(n, nan);
      all_nan[n / 2] = -0.0;
      cases.push_back(all_nan);
      std::vector<double> tiny(n);
      for (std::size_t i = 0; i < n; ++i) {
        tiny[i] = (i % 2 == 0 ? -1.0 : 1.0) * sub * static_cast<double>(i % 7);
      }
      cases.push_back(tiny);
      for (double big : {inf, -inf}) {
        std::vector<double> infs = nans;
        infs[(n * 5 / 7) % n] = big;
        cases.push_back(infs);
      }
    }
    for (const std::vector<double>& c : cases) {
      const auto want = std::bit_cast<std::uint64_t>(serial_abs_max(c));
      const Matrix m(1, c.size(), c);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(m.abs_max()), want) << "n " << n;
      for (const simd::DenseKernels* t : tables) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(t->abs_max(c.data(), c.size())), want)
            << "n " << n;
      }
    }
  }
}

TEST(Matrix, FillSetsEveryElement) {
  Matrix m(3, 3);
  m.fill(1.5);
  for (double v : m.raw()) EXPECT_EQ(v, 1.5);
}

TEST(Matrix, HeNormalHasExpectedScale) {
  Rng rng(5);
  const std::size_t fan_in = 100;
  Matrix m = he_normal(50, fan_in, rng);
  double sum2 = 0.0;
  for (double v : m.raw()) sum2 += v * v;
  const double var = sum2 / static_cast<double>(m.size());
  EXPECT_NEAR(var, 2.0 / static_cast<double>(fan_in), 0.004);
}

TEST(Matrix, EqualityIsElementwise) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {1, 2, 3, 4});
  Matrix c(2, 2, {1, 2, 3, 5});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace pnm

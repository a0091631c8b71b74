#ifndef PNM_NN_MATRIX_HPP
#define PNM_NN_MATRIX_HPP

/// \file matrix.hpp
/// \brief Small dense row-major matrix used by the MLP substrate.
///
/// Printed MLPs are tiny (tens of neurons), so this is deliberately a
/// simple, cache-friendly value type rather than a BLAS wrapper: the whole
/// reproduction trains thousands of such networks inside GA loops, and the
/// dominant cost is the O(rows*cols) loops below.  Those loops run through
/// the runtime-dispatched kernels in nn/dense_simd.hpp (AVX2 / NEON /
/// scalar); results are bit-identical on every ISA — see that header's
/// determinism contract.  In particular matvec's dot product uses the
/// canonical four-chain summation order defined there.

#include <cstddef>
#include <vector>

#include "pnm/util/rng.hpp"

namespace pnm {

/// Dense row-major matrix of double.
class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols);

  /// Matrix initialized from explicit data (size must equal rows*cols).
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  std::vector<double>& raw() { return data_; }
  const std::vector<double>& raw() const { return data_; }

  /// Sets every element to v.
  void fill(double v);

  /// y = this * x  (x.size() == cols, y.size() == rows).
  void matvec(const std::vector<double>& x, std::vector<double>& y) const;

  /// Elementwise maximum of |element| over the whole matrix (0 for empty).
  [[nodiscard]] double abs_max() const;

  /// Number of exactly-zero elements.
  [[nodiscard]] std::size_t zero_count() const;

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// He-normal initialization (std = sqrt(2/fan_in)), the standard choice for
/// ReLU MLPs and what we use for every trained baseline.
Matrix he_normal(std::size_t rows, std::size_t cols, Rng& rng);

}  // namespace pnm

#endif  // PNM_NN_MATRIX_HPP

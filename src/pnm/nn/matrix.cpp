#include "pnm/nn/matrix.hpp"

#include <cmath>
#include <stdexcept>

#include "pnm/nn/dense_simd.hpp"

namespace pnm {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != rows * cols) {
    throw std::invalid_argument("Matrix: data size does not match shape");
  }
}

void Matrix::fill(double v) {
  for (auto& e : data_) e = v;
}

void Matrix::matvec(const std::vector<double>& x, std::vector<double>& y) const {
  if (x.size() != cols_) throw std::invalid_argument("matvec: bad x size");
  const auto& kernels = simd::dense_kernels();
  y.assign(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    y[r] = kernels.dot(data_.data() + r * cols_, x.data(), cols_);
  }
}

double Matrix::abs_max() const {
  return simd::dense_kernels().abs_max(data_.data(), data_.size());
}

std::size_t Matrix::zero_count() const {
  std::size_t n = 0;
  for (double e : data_) n += (e == 0.0) ? 1 : 0;
  return n;
}

Matrix he_normal(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const double std = std::sqrt(2.0 / static_cast<double>(cols));
  for (auto& e : m.raw()) e = rng.normal(0.0, std);
  return m;
}

}  // namespace pnm

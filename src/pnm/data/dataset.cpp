#include "pnm/data/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pnm {

void Dataset::validate() const {
  if (x.size() != y.size()) {
    throw std::invalid_argument("Dataset: feature/label count mismatch");
  }
  const std::size_t nf = n_features();
  for (const auto& row : x) {
    if (row.size() != nf) throw std::invalid_argument("Dataset: ragged feature rows");
    for (double v : row) {
      // NaN/inf features would silently poison scaling and training.
      if (!std::isfinite(v)) {
        throw std::invalid_argument("Dataset: non-finite feature value");
      }
    }
  }
  for (std::size_t label : y) {
    if (label >= n_classes) throw std::invalid_argument("Dataset: label out of range");
  }
}

std::vector<std::size_t> Dataset::class_histogram() const {
  std::vector<std::size_t> hist(n_classes, 0);
  for (std::size_t label : y) hist.at(label)++;
  return hist;
}

std::array<std::size_t, 3> stratified_class_counts(std::size_t n, double train_frac,
                                                   double val_frac, double test_frac) {
  const auto share = [n](double frac) {
    return static_cast<std::size_t>(std::llround(frac * static_cast<double>(n)));
  };
  const std::size_t train = std::min(n, share(train_frac));
  const std::size_t val = std::min(n - train, share(val_frac));
  return {train, val, std::min(n - train - val, share(test_frac))};
}

DataSplit stratified_split(const Dataset& data, double train_frac, double val_frac,
                           double test_frac, Rng& rng) {
  if (train_frac <= 0.0 || val_frac < 0.0 || test_frac < 0.0 ||
      train_frac + val_frac + test_frac > 1.0 + 1e-9) {
    throw std::invalid_argument("stratified_split: bad fractions");
  }
  data.validate();

  std::vector<std::vector<std::size_t>> per_class(data.n_classes);
  for (std::size_t i = 0; i < data.size(); ++i) per_class[data.y[i]].push_back(i);
  for (auto& idx : per_class) rng.shuffle(idx);

  std::vector<std::size_t> train_idx, val_idx, test_idx;
  for (const auto& idx : per_class) {
    const auto [n_train, n_val, n_test] =
        stratified_class_counts(idx.size(), train_frac, val_frac, test_frac);
    std::size_t p = 0;
    for (std::size_t k = 0; k < n_train; ++k) train_idx.push_back(idx[p++]);
    for (std::size_t k = 0; k < n_val; ++k) val_idx.push_back(idx[p++]);
    for (std::size_t k = 0; k < n_test; ++k) test_idx.push_back(idx[p++]);
  }
  rng.shuffle(train_idx);
  rng.shuffle(val_idx);
  rng.shuffle(test_idx);

  DataSplit split;
  split.train = subset(data, train_idx);
  split.val = subset(data, val_idx);
  split.test = subset(data, test_idx);
  split.train.name = data.name + "-train";
  split.val.name = data.name + "-val";
  split.test.name = data.name + "-test";
  return split;
}

Dataset subset(const Dataset& data, const std::vector<std::size_t>& indices) {
  Dataset out;
  out.name = data.name;
  out.n_classes = data.n_classes;
  out.x.reserve(indices.size());
  out.y.reserve(indices.size());
  for (std::size_t i : indices) {
    out.x.push_back(data.x.at(i));
    out.y.push_back(data.y.at(i));
  }
  return out;
}

}  // namespace pnm

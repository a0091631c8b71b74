#ifndef PNM_DATA_DATASET_HPP
#define PNM_DATA_DATASET_HPP

/// \file dataset.hpp
/// \brief In-memory classification dataset plus split utilities.
///
/// The paper evaluates on four UCI datasets (WhiteWine, RedWine, Pendigits,
/// Seeds).  This type carries either the synthetic analogs from
/// pnm/data/synth.hpp or real CSV data loaded via pnm/data/csv.hpp.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pnm/util/rng.hpp"

namespace pnm {

/// A labelled classification dataset (row-per-sample features + class ids).
struct Dataset {
  std::string name;                        ///< e.g. "whitewine-synth"
  std::vector<std::vector<double>> x;      ///< features, one row per sample
  std::vector<std::size_t> y;              ///< class labels in [0, n_classes)
  std::size_t n_classes = 0;

  [[nodiscard]] std::size_t size() const { return x.size(); }
  [[nodiscard]] std::size_t n_features() const { return x.empty() ? 0 : x.front().size(); }

  /// Throws std::invalid_argument if shapes/labels are inconsistent.
  void validate() const;

  /// Number of samples carrying each label.
  [[nodiscard]] std::vector<std::size_t> class_histogram() const;
};

/// Train/validation/test partition of one dataset.
struct DataSplit {
  Dataset train;
  Dataset val;
  Dataset test;
};

/// How stratified_split divides one class of n samples: {train,
/// validation, test} counts, each its fraction of n rounded to nearest and
/// cut to what the earlier parts leave.  So a class feeds all three parts
/// of a 0.6/0.2/0.2 split only from 4 samples up.
std::array<std::size_t, 3> stratified_class_counts(std::size_t n, double train_frac,
                                                   double val_frac, double test_frac);

/// Stratified split: each class is partitioned with the same fractions so
/// minority classes (the wines are heavily imbalanced) appear in all three
/// parts.  Fractions must be positive and train+val+test fractions <= 1;
/// the remainder (if any) is dropped.  Deterministic given the rng state.
DataSplit stratified_split(const Dataset& data, double train_frac, double val_frac,
                           double test_frac, Rng& rng);

/// Returns the subset of samples whose indices are listed (order preserved).
Dataset subset(const Dataset& data, const std::vector<std::size_t>& indices);

}  // namespace pnm

#endif  // PNM_DATA_DATASET_HPP

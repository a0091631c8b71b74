#ifndef PNM_DATA_SCALER_HPP
#define PNM_DATA_SCALER_HPP

/// \file scaler.hpp
/// \brief Min-max feature scaling to [0, 1].
///
/// Bespoke printed classifiers receive sensor readings as unsigned
/// fixed-point words; the standard printed-ML flow (Mubarik et al.) min-max
/// normalizes each feature to [0, 1] and quantizes it to a small unsigned
/// integer.  The scaler is fit on the training split only and then applied
/// to validation/test, as usual.

#include <vector>

#include "pnm/data/dataset.hpp"

namespace pnm {

/// Per-feature affine map x -> (x - min) / (max - min), clamped to [0, 1]
/// so that out-of-training-range test samples stay representable in the
/// unsigned input format of the circuit.
class MinMaxScaler {
 public:
  /// Learns per-feature minima/maxima. Constant features map to 0.
  void fit(const Dataset& data);

  [[nodiscard]] bool fitted() const { return !min_.empty(); }

  /// Scales one sample in place.
  void transform(std::vector<double>& x) const;

  /// Returns a scaled copy of the dataset.
  [[nodiscard]] Dataset transform(const Dataset& data) const;

 private:
  std::vector<double> min_;
  std::vector<double> max_;
};

/// Fits on split.train and scales all three parts in place.
void scale_split(DataSplit& split, MinMaxScaler& scaler);

}  // namespace pnm

#endif  // PNM_DATA_SCALER_HPP

#ifndef PNM_NN_METRICS_HPP
#define PNM_NN_METRICS_HPP

/// \file metrics.hpp
/// \brief Classification metrics used throughout the evaluation harness.

#include <functional>
#include <vector>

#include "pnm/data/dataset.hpp"
#include "pnm/nn/mlp.hpp"

namespace pnm {

/// A generic classifier: sample features -> predicted class.
using Predictor = std::function<std::size_t(const std::vector<double>&)>;

/// Fraction of correctly classified samples.
double accuracy(const Predictor& predict, const Dataset& data);

/// Accuracy of a float MLP.
double accuracy(const Mlp& model, const Dataset& data);

}  // namespace pnm

#endif  // PNM_NN_METRICS_HPP

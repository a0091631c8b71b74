#ifndef PNM_NN_MLP_HPP
#define PNM_NN_MLP_HPP

/// \file mlp.hpp
/// \brief The floating-point multilayer perceptron that every minimization
///        technique in the paper starts from.
///
/// The topologies used by printed-ML work are tiny (one hidden layer, a
/// handful of neurons), so the model is a plain vector of dense layers with
/// explicit forward/backward passes.  All minimization transforms (pruning
/// masks, clustering assignments, quantization) operate on this class and
/// the trained result is handed to pnm::QuantizedMlp for integer inference
/// and to pnm::hw for bespoke circuit generation.

#include <cstddef>
#include <vector>

#include "pnm/nn/activation.hpp"
#include "pnm/nn/matrix.hpp"
#include "pnm/util/rng.hpp"

namespace pnm {

/// One dense layer: y = act(W x + b), with W of shape (out, in).
struct DenseLayer {
  Matrix weights;              ///< (out, in); weights(r, c) multiplies input c.
  std::vector<double> bias;    ///< size out.
  Activation act = Activation::kRelu;

  [[nodiscard]] std::size_t in_features() const { return weights.cols(); }
  [[nodiscard]] std::size_t out_features() const { return weights.rows(); }
};

/// Feed-forward MLP for classification (output = raw logits; prediction is
/// the argmax, mirroring the bespoke circuit's comparator tree).
class Mlp {
 public:
  Mlp() = default;

  /// Builds a network with the given layer sizes, e.g. {11, 6, 7} = 11
  /// inputs, one hidden layer of 6 (ReLU), 7 output classes (identity).
  /// Weights are He-normal, biases zero.
  Mlp(const std::vector<std::size_t>& topology, Rng& rng);

  /// Builds from explicit layers (used by structured_prune and tests).
  explicit Mlp(std::vector<DenseLayer> layers);

  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] const DenseLayer& layer(std::size_t i) const { return layers_.at(i); }
  DenseLayer& layer(std::size_t i) { return layers_.at(i); }
  [[nodiscard]] const std::vector<DenseLayer>& layers() const { return layers_; }
  std::vector<DenseLayer>& layers() { return layers_; }

  [[nodiscard]] std::size_t input_size() const;
  [[nodiscard]] std::size_t output_size() const;

  /// Layer sizes including input, e.g. {11, 6, 7}.
  [[nodiscard]] std::vector<std::size_t> topology() const;

  /// Forward pass; returns the output-layer activations (logits).
  [[nodiscard]] std::vector<double> forward(const std::vector<double>& x) const;

  /// Predicted class = argmax of logits (ties resolved to the lowest
  /// index, matching the hardware comparator tree).
  [[nodiscard]] std::size_t predict(const std::vector<double>& x) const;

  /// Total number of weights (excluding biases).
  [[nodiscard]] std::size_t weight_count() const;

  /// Number of exactly-zero weights (pruned connections).
  [[nodiscard]] std::size_t zero_weight_count() const;

 private:
  std::vector<DenseLayer> layers_;
};

/// Index of the maximum element; ties resolved to the lowest index.
std::size_t argmax(const std::vector<double>& v);

}  // namespace pnm

#endif  // PNM_NN_MLP_HPP

#ifndef PNM_TESTS_TRAINER_REFERENCE_HPP
#define PNM_TESTS_TRAINER_REFERENCE_HPP

/// \file trainer_reference.hpp
/// \brief The reference fine-tuning arithmetic that production fine-tuning
///        (nn/trainer.hpp: the blocked minibatch backprop with the kernel
///        table's fast softmax, kFinetuneMath) is compared against.
///
///  * the libm softmax cross-entropy, and the mean loss of a model over a
///    dataset computed with it;
///  * the per-sample backprop, with the libm softmax or the per-sample
///    fast one, and the helpers it needs;
///  * the blocked minibatch backprop with the libm softmax taken one lane
///    at a time;
///  * fit(), which replays Trainer::fit step for step (shuffle, weight
///    view, gradient, Adam through simd::dense_kernels(), projector) with
///    the gradient chosen by the caller.  With Gradient::kProduction it
///    reproduces Trainer::fit bit for bit (nn_trainer_golden_test holds it
///    to that);
///  * minimize_float() and realize(), PipelineEvaluator's pipeline built
///    from the public pieces around fit(), with the QAT view and the prune
///    mask + cluster ties projector as fit's callbacks.  Production
///    compiles that mask and those ties into Trainer::fit_live instead,
///    which must reproduce this path bit for bit.
///
/// Like production, every path takes the output layer's values as the
/// logits, so the model's output layer must be identity.  The per-sample
/// and libm paths are accuracy-neutral against production, not
/// bit-identical (different reduction orders, fast_exp against libm).
/// Header-only and free of gtest, so micro_bench's fine-tuning floor
/// includes it too.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "pnm/core/cluster.hpp"
#include "pnm/core/eval.hpp"
#include "pnm/core/ga.hpp"
#include "pnm/core/prune.hpp"
#include "pnm/core/qmlp.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/data/dataset.hpp"
#include "pnm/nn/activation.hpp"
#include "pnm/nn/dense_simd.hpp"
#include "pnm/nn/fastmath.hpp"
#include "pnm/nn/matrix.hpp"
#include "pnm/nn/mlp.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/util/fileio.hpp"
#include "pnm/util/rng.hpp"

namespace pnm::reference {

/// Forces one dense-kernel table (the references run on kScalar) for its
/// lifetime, then restores the dispatched one.
class ScopedKernels {
 public:
  explicit ScopedKernels(simd::Isa isa) { simd::force_dense_kernels(isa); }
  ~ScopedKernels() { simd::reset_dense_kernels(); }
  ScopedKernels(const ScopedKernels&) = delete;
  ScopedKernels& operator=(const ScopedKernels&) = delete;
};

// ---- Per-sample helpers ---------------------------------------------------

/// y = m^T * x (x.size() == m.rows(), y.size() == m.cols()): row r of m
/// scaled by x[r] and added into y, rows in order.
inline void matvec_transposed(const Matrix& m, const std::vector<double>& x,
                              std::vector<double>& y) {
  if (x.size() != m.rows()) throw std::invalid_argument("matvec_transposed: bad x size");
  y.assign(m.cols(), 0.0);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) y[c] += x[r] * m(r, c);
  }
}

/// Rank-1 update m += alpha * u * v^T (u.size() == m.rows(),
/// v.size() == m.cols()).
inline void add_outer(Matrix& m, double alpha, const std::vector<double>& u,
                      const std::vector<double>& v) {
  if (u.size() != m.rows() || v.size() != m.cols()) {
    throw std::invalid_argument("add_outer: shape mismatch");
  }
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const double s = alpha * u[r];
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) += s * v[c];
  }
}

/// Forward pass recording every layer's post-activation output
/// (activations[0] is the input itself).
inline void forward_cached(const Mlp& model, const std::vector<double>& x,
                           std::vector<std::vector<double>>& activations) {
  activations.resize(model.layer_count() + 1);
  activations[0].assign(x.begin(), x.end());
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    const auto& l = model.layer(i);
    l.weights.matvec(activations[i], activations[i + 1]);
    auto& out = activations[i + 1];
    for (std::size_t r = 0; r < out.size(); ++r) out[r] += l.bias[r];
    apply_activation(l.act, out);
  }
}

inline void set_zero(Gradients& g) {
  for (auto& m : g.w) m.fill(0.0);
  for (auto& v : g.b) std::fill(v.begin(), v.end(), 0.0);
}

/// Multiplies every gradient element by s.
inline void scale(Gradients& g, double s) {
  for (auto& m : g.w) {
    for (auto& e : m.raw()) e *= s;
  }
  for (auto& v : g.b) {
    for (auto& e : v) e *= s;
  }
}

/// Softmax cross-entropy loss for one sample; if grad is non-null it
/// receives dL/dlogits (softmax - onehot).  Numerically stabilized, through
/// libm exp/log.
inline double softmax_cross_entropy(const std::vector<double>& logits, std::size_t label,
                                    std::vector<double>* grad) {
  if (label >= logits.size()) {
    throw std::invalid_argument("softmax_cross_entropy: label out of range");
  }
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  double denom = 0.0;
  for (double z : logits) denom += std::exp(z - max_logit);
  const double log_denom = std::log(denom);
  const double loss = -(logits[label] - max_logit - log_denom);
  if (grad != nullptr) {
    grad->resize(logits.size());
    for (std::size_t i = 0; i < logits.size(); ++i) {
      (*grad)[i] = std::exp(logits[i] - max_logit - log_denom);
    }
    (*grad)[label] -= 1.0;
  }
  return loss;
}

/// Mean libm softmax cross-entropy of a float MLP over a dataset.
inline double mean_cross_entropy(const Mlp& model, const Dataset& data) {
  if (data.size() == 0) throw std::invalid_argument("mean_cross_entropy: empty dataset");
  double total = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    total += softmax_cross_entropy(model.forward(data.x[i]), data.y[i], nullptr);
  }
  return total / static_cast<double>(data.size());
}

/// The per-sample fast softmax cross-entropy gradient: the libm
/// formulation through fast_exp, each exponential computed once.  Per
/// lane, the kernel tables' softmax_xent performs exactly these operations
/// (nn/dense_simd.hpp).
inline void softmax_grad_fast(const std::vector<double>& logits, std::size_t label,
                              std::vector<double>& grad) {
  if (label >= logits.size()) {
    throw std::invalid_argument("softmax_grad_fast: label out of range");
  }
  const std::size_t n = logits.size();
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  grad.resize(n);
  double* g = grad.data();
  for (std::size_t i = 0; i < n; ++i) g[i] = logits[i] - max_logit;
  fast_exp(g, g, n);
  double denom = 0.0;
  for (std::size_t i = 0; i < n; ++i) denom += g[i];
  const double inv = 1.0 / denom;
  for (std::size_t i = 0; i < n; ++i) g[i] *= inv;
  g[label] -= 1.0;
}

enum class Softmax { kLibm, kFast };

/// Per-sample backprop buffers, reused across samples; every buffer is
/// overwritten before it is read.
struct SampleScratch {
  std::vector<std::vector<double>> acts;
  std::vector<double> delta;
  std::vector<double> prev_delta;
};

/// Accumulates dL/dparams for one sample into grads (+=).
inline void backprop_sample(const Mlp& model, const std::vector<double>& x,
                            std::size_t label, Softmax softmax, Gradients& grads,
                            SampleScratch& scratch) {
  auto& acts = scratch.acts;
  forward_cached(model, x, acts);
  auto& delta = scratch.delta;
  if (softmax == Softmax::kFast) {
    softmax_grad_fast(acts.back(), label, delta);
  } else {
    softmax_cross_entropy(acts.back(), label, &delta);
  }
  for (std::size_t li = model.layer_count(); li-- > 0;) {
    // dL/dW += delta * acts[li]^T ; dL/db += delta.
    add_outer(grads.w[li], 1.0, delta, acts[li]);
    for (std::size_t r = 0; r < delta.size(); ++r) grads.b[li][r] += delta[r];
    if (li == 0) break;
    auto& prev_delta = scratch.prev_delta;
    matvec_transposed(model.layer(li).weights, delta, prev_delta);
    // acts[li] is the post-activation output of layer li-1: a ReLU passes
    // no gradient where its output is not positive.
    if (model.layer(li - 1).act == Activation::kRelu) {
      for (std::size_t c = 0; c < prev_delta.size(); ++c) {
        if (acts[li][c] <= 0.0) prev_delta[c] = 0.0;
      }
    }
    delta.swap(prev_delta);
  }
}

// ---- Blocked minibatch backprop with the libm softmax ---------------------

struct LibmBlockScratch {
  BlockBackpropScratch block;
  std::vector<double> logits;  ///< one lane's logits
  std::vector<double> grad;    ///< one lane's dL/dlogits
};

/// backprop_minibatch's contract and kernels, with the softmax gradient
/// taken by the libm softmax_cross_entropy one gathered lane at a time.
inline void backprop_minibatch_libm(const Mlp& model, const Dataset& train,
                                    const std::size_t* idx, std::size_t n,
                                    double grad_scale, Gradients& grads,
                                    LibmBlockScratch& scratch) {
  constexpr std::size_t kB = simd::kDenseBlock;
  const auto& kernels = simd::dense_kernels();
  BlockBackpropScratch& s = scratch.block;
  const std::size_t n_layers = model.layer_count();
  const std::size_t n_in = model.input_size();
  const std::size_t n_out = model.output_size();
  const std::size_t blocks = (n + kB - 1) / kB;

  s.rows.resize(n);
  s.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.rows[i] = train.x[idx[i]].data();
    s.labels[i] = train.y[idx[i]];
    if (s.labels[i] >= n_out) {
      throw std::invalid_argument("softmax_cross_entropy: label out of range");
    }
  }
  auto& acts = s.acts;
  acts.resize(n_layers + 1);
  acts[0].resize(blocks * n_in * kB);
  kernels.gather(s.rows.data(), n, n_in, acts[0].data());

  for (std::size_t li = 0; li < n_layers; ++li) {
    const auto& layer = model.layer(li);
    acts[li + 1].resize(blocks * layer.out_features() * kB);
    kernels.layer_fwd(layer.weights.raw().data(), layer.bias.data(), acts[li].data(),
                      acts[li + 1].data(), layer.out_features(), layer.in_features(),
                      blocks, layer.act == Activation::kRelu);
  }

  const auto& logits = acts[n_layers];
  auto& delta = s.delta;
  delta.assign(blocks * n_out * kB, 0.0);
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* z = logits.data() + b * n_out * kB;
    double* d = delta.data() + b * n_out * kB;
    for (std::size_t j = 0; j < kB && b * kB + j < n; ++j) {
      scratch.logits.resize(n_out);
      for (std::size_t r = 0; r < n_out; ++r) scratch.logits[r] = z[r * kB + j];
      softmax_cross_entropy(scratch.logits, s.labels[b * kB + j], &scratch.grad);
      for (std::size_t r = 0; r < n_out; ++r) d[r * kB + j] = scratch.grad[r];
    }
  }

  for (std::size_t li = n_layers; li-- > 0;) {
    const auto& layer = model.layer(li);
    kernels.layer_grad(delta.data(), acts[li].data(), grads.w[li].raw().data(),
                       grads.b[li].data(), layer.out_features(), layer.in_features(),
                       blocks, grad_scale);
    if (li == 0) break;
    auto& prev_delta = s.prev_delta;
    prev_delta.resize(blocks * layer.in_features() * kB);
    kernels.layer_back(layer.weights.raw().data(), delta.data(),
                       model.layer(li - 1).act == Activation::kRelu ? acts[li].data() : nullptr,
                       prev_delta.data(), layer.out_features(), layer.in_features(),
                       blocks);
    delta.swap(prev_delta);
  }
}

// ---- The fit loop ---------------------------------------------------------

/// Which arithmetic computes each step's mean gradient.
enum class Gradient {
  kProduction,     ///< backprop_minibatch: the fine-tuning numerics
  kBlockedLibm,    ///< backprop_minibatch_libm
  kPerSampleLibm,  ///< backprop_sample with the libm softmax
};

/// Trainer::fit, step for step, with `gradient` computing each step's
/// gradient: fresh Adam moments, the shuffle, minibatches of kTrainBatch,
/// the weight view into a model copied once, the gradient, Adam through
/// simd::dense_kernels(), and the projector.  Skips fit's input checks.
inline void fit(Mlp& model, const Dataset& train, Rng& rng, const TrainConfig& config,
                Gradient gradient, const Trainer::WeightView& view = {},
                const Trainer::Projector& projector = {}) {
  std::vector<Matrix> m_w, v_w;
  std::vector<std::vector<double>> m_b, v_b;
  for (const auto& l : model.layers()) {
    m_w.emplace_back(l.out_features(), l.in_features());
    v_w.emplace_back(l.out_features(), l.in_features());
    m_b.emplace_back(l.out_features(), 0.0);
    v_b.emplace_back(l.out_features(), 0.0);
  }
  long step = 0;
  Gradients grads = Gradients::zeros_like(model);
  BlockBackpropScratch block_scratch;
  LibmBlockScratch libm_scratch;
  SampleScratch sample_scratch;
  std::vector<std::size_t> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Mlp view_model;
  if (view) view_model = model;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += kTrainBatch) {
      const std::size_t end = std::min(order.size(), start + kTrainBatch);
      const double inv_n = 1.0 / static_cast<double>(end - start);
      const Mlp* fwd = &model;
      if (view) {
        view(model, view_model);
        fwd = &view_model;
      }
      const std::size_t* idx = order.data() + start;
      switch (gradient) {
        case Gradient::kProduction:
          backprop_minibatch(*fwd, train, idx, end - start, inv_n, grads, block_scratch);
          break;
        case Gradient::kBlockedLibm:
          backprop_minibatch_libm(*fwd, train, idx, end - start, inv_n, grads, libm_scratch);
          break;
        case Gradient::kPerSampleLibm:
          set_zero(grads);
          for (std::size_t i = start; i < end; ++i) {
            backprop_sample(*fwd, train.x[order[i]], train.y[order[i]], Softmax::kLibm, grads,
                            sample_scratch);
          }
          scale(grads, inv_n);
          break;
      }

      ++step;
      const auto& kernels = simd::dense_kernels();
      simd::AdamStep adam;
      adam.bias_corr1 = 1.0 - std::pow(adam.beta1, static_cast<double>(step));
      adam.bias_corr2 = 1.0 - std::pow(adam.beta2, static_cast<double>(step));
      adam.lr = config.lr;
      for (std::size_t li = 0; li < model.layer_count(); ++li) {
        auto& w = model.layer(li).weights.raw();
        auto& b = model.layer(li).bias;
        kernels.adam(w.data(), grads.w[li].raw().data(), m_w[li].raw().data(),
                     v_w[li].raw().data(), w.size(), adam);
        kernels.adam(b.data(), grads.b[li].data(), m_b[li].data(), v_b[li].data(), b.size(),
                     adam);
      }
      if (projector) projector(model);
    }
  }
}

// ---- The pipeline around it -----------------------------------------------

/// PipelineEvaluator::minimize_float (core/eval.cpp) for `genome` over the
/// float model `base` and the training split `train`, with the fine-tune
/// run by fit() and `gradient` through the view and projector callbacks.
inline Mlp minimize_float(const Mlp& base, const Dataset& train, const EvalConfig& config,
                          const Genome& genome, Gradient gradient) {
  const std::size_t n_layers = base.layer_count();
  Mlp candidate = base;
  Rng rng(config.seed ^ fnv1a64(genome.key()));
  std::vector<double> sparsity(n_layers);
  for (std::size_t li = 0; li < n_layers; ++li) {
    sparsity[li] = static_cast<double>(genome.sparsity_pct[li]) / 100.0;
  }
  const PruneMask mask = magnitude_prune_per_layer(candidate, sparsity);
  const ClusterAssignment clusters =
      cluster_weights(candidate, genome.clusters, rng, config.cluster_scope);
  if (config.finetune_epochs > 0) {
    TrainConfig ft = config.train;
    ft.epochs = config.finetune_epochs;
    ft.lr = config.train.lr * 0.3;
    QuantSpec spec;
    spec.weight_bits = genome.weight_bits;
    spec.input_bits = config.input_bits;
    fit(candidate, train, rng, ft, gradient, make_qat_view(spec), [&](Mlp& m) {
      mask.apply(m);
      clusters.project(m);
    });
  }
  return candidate;
}

/// PipelineEvaluator::realize: minimize_float(), then the integer model.
inline QuantizedMlp realize(const Mlp& base, const Dataset& train, const EvalConfig& config,
                            const Genome& genome, Gradient gradient) {
  QuantSpec spec;
  spec.weight_bits = genome.weight_bits;
  spec.input_bits = config.input_bits;
  spec.acc_shift = genome.acc_shift;
  return QuantizedMlp::from_float(minimize_float(base, train, config, genome, gradient), spec);
}

}  // namespace pnm::reference

#endif  // PNM_TESTS_TRAINER_REFERENCE_HPP

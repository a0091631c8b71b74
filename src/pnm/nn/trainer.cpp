#include "pnm/nn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pnm/nn/dense_simd.hpp"

namespace pnm {

Gradients Gradients::zeros_like(const Mlp& model) {
  Gradients g;
  g.w.reserve(model.layer_count());
  g.b.reserve(model.layer_count());
  for (const auto& l : model.layers()) {
    g.w.emplace_back(l.out_features(), l.in_features());
    g.b.emplace_back(l.out_features(), 0.0);
  }
  return g;
}

void backprop_minibatch(const Mlp& model, const Dataset& train, const std::size_t* idx,
                        std::size_t n, double grad_scale, Gradients& grads,
                        BlockBackpropScratch& scratch) {
  constexpr std::size_t kB = simd::kDenseBlock;
  const auto& kernels = simd::dense_kernels();
  const std::size_t n_layers = model.layer_count();
  const std::size_t n_in = model.input_size();
  const std::size_t n_out = model.output_size();
  const std::size_t blocks = (n + kB - 1) / kB;

  // Gather the minibatch into SoA blocks: sample i is lane i%8 of block
  // i/8, and the last block's padding lanes are 0.
  scratch.rows.resize(n);
  scratch.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.rows[i] = train.x[idx[i]].data();
    scratch.labels[i] = train.y[idx[i]];
    if (scratch.labels[i] >= n_out) {
      throw std::invalid_argument("backprop_minibatch: label out of range");
    }
  }
  auto& acts = scratch.acts;
  acts.resize(n_layers + 1);
  acts[0].resize(blocks * n_in * kB);
  kernels.gather(scratch.rows.data(), n, n_in, acts[0].data());

  // Forward: one weight visit per layer feeds every lane of the minibatch;
  // a ReLU is fused into the kernel, and identity is no activation at all.
  for (std::size_t li = 0; li < n_layers; ++li) {
    const auto& layer = model.layer(li);
    acts[li + 1].resize(blocks * layer.out_features() * kB);
    kernels.layer_fwd(layer.weights.raw().data(), layer.bias.data(), acts[li].data(),
                      acts[li + 1].data(), layer.out_features(), layer.in_features(),
                      blocks, layer.act == Activation::kRelu);
  }

  // Softmax cross-entropy gradient; padding lanes get delta = 0, so their
  // backward contributions vanish identically.
  auto& delta = scratch.delta;
  delta.resize(blocks * n_out * kB);
  kernels.softmax_xent(acts[n_layers].data(), scratch.labels.data(), n, n_out, delta.data());

  for (std::size_t li = n_layers; li-- > 0;) {
    const auto& layer = model.layer(li);
    kernels.layer_grad(delta.data(), acts[li].data(), grads.w[li].raw().data(),
                       grads.b[li].data(), layer.out_features(), layer.in_features(),
                       blocks, grad_scale);
    if (li == 0) break;
    // acts[li] is the post-activation output of layer li-1; a ReLU's
    // gradient is fused into the backward kernel, and identity has none.
    auto& prev_delta = scratch.prev_delta;
    prev_delta.resize(blocks * layer.in_features() * kB);
    kernels.layer_back(layer.weights.raw().data(), delta.data(),
                       model.layer(li - 1).act == Activation::kRelu ? acts[li].data() : nullptr,
                       prev_delta.data(), layer.out_features(), layer.in_features(),
                       blocks);
    delta.swap(prev_delta);
  }
}

void TrainConfig::validate() const {
  if (epochs == 0) throw std::invalid_argument("TrainConfig: epochs must be positive");
  if (!std::isfinite(lr) || lr <= 0.0) {
    throw std::invalid_argument("TrainConfig: lr must be finite and positive");
  }
}

Trainer::Trainer(TrainConfig config) : config_(config) { config_.validate(); }

void Trainer::fit(Mlp& model, const Dataset& train, Rng& rng) {
  train.validate();
  fit_validated(model, train, rng);
}

void Trainer::fit_validated(Mlp& model, const Dataset& train, Rng& rng) {
  if (train.size() == 0) throw std::invalid_argument("Trainer::fit: empty dataset");
  if (train.n_features() != model.input_size() || train.n_classes > model.output_size()) {
    throw std::invalid_argument("Trainer::fit: dataset/model shape mismatch");
  }
  if (model.layers().back().act != Activation::kIdentity) {
    throw std::invalid_argument("Trainer::fit: the output layer must be identity");
  }

  reset_optimizer(model);
  Gradients grads = Gradients::zeros_like(model);
  BlockBackpropScratch scratch;
  std::vector<std::size_t> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  // The STE weight view's target: copied once, then rewritten by the view
  // before every step (a view sets every weight and bias).
  Mlp view_model;
  if (view_) view_model = model;

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += kTrainBatch) {
      const std::size_t end = std::min(order.size(), start + kTrainBatch);
      const double inv_n = 1.0 / static_cast<double>(end - start);

      const Mlp* fwd = &model;
      if (view_) {
        view_(model, view_model);
        fwd = &view_model;
      }
      // The whole minibatch per weight visit, 8 samples per SoA block (the
      // trainer-side twin of the inference engine's blocking); it stores
      // the mean gradient itself.
      backprop_minibatch(*fwd, train, order.data() + start, end - start, inv_n, grads,
                         scratch);
      apply_update(model, grads);
      if (projector_) projector_(model);
    }
  }
}

void Trainer::reset_optimizer(const Mlp& model) {
  m_w_.clear();
  v_w_.clear();
  m_b_.clear();
  v_b_.clear();
  for (const auto& l : model.layers()) {
    m_w_.emplace_back(l.out_features(), l.in_features());
    v_w_.emplace_back(l.out_features(), l.in_features());
    m_b_.emplace_back(l.out_features(), 0.0);
    v_b_.emplace_back(l.out_features(), 0.0);
  }
  step_ = 0;
}

void Trainer::apply_update(Mlp& model, const Gradients& grads) {
  ++step_;

  // Adam updates every element independently, so the whole step runs
  // through the vectorized elementwise kernel (bit-identical to the
  // scalar loop on every ISA — see nn/dense_simd.hpp).
  const auto& kernels = simd::dense_kernels();
  simd::AdamStep step;
  step.bias_corr1 = 1.0 - std::pow(step.beta1, static_cast<double>(step_));
  step.bias_corr2 = 1.0 - std::pow(step.beta2, static_cast<double>(step_));
  step.lr = config_.lr;
  for (std::size_t li = 0; li < model.layer_count(); ++li) {
    auto& layer = model.layer(li);
    auto& w = layer.weights.raw();
    auto& b = layer.bias;
    kernels.adam(w.data(), grads.w[li].raw().data(), m_w_[li].raw().data(),
                 v_w_[li].raw().data(), w.size(), step);
    kernels.adam(b.data(), grads.b[li].data(), m_b_[li].data(), v_b_[li].data(), b.size(),
                 step);
  }
}

}  // namespace pnm

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

double softmax_cross_entropy(const std::vector<double>& logits, std::size_t label,
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

void backprop_minibatch(const Mlp& model, const Dataset& train, const std::size_t* idx,
                        std::size_t n, double grad_scale, Gradients& grads,
                        BlockBackpropScratch& scratch, double& loss) {
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
      throw std::invalid_argument("softmax_cross_entropy: label out of range");
    }
  }
  auto& acts = scratch.acts;
  acts.resize(n_layers + 1);
  acts[0].resize(blocks * n_in * kB);
  kernels.gather(scratch.rows.data(), n, n_in, acts[0].data());

  // Forward: one weight visit per layer feeds every lane of the minibatch.
  for (std::size_t li = 0; li < n_layers; ++li) {
    const auto& layer = model.layer(li);
    const bool relu = layer.act == Activation::kRelu;
    acts[li + 1].resize(blocks * layer.out_features() * kB);
    kernels.layer_fwd(layer.weights.raw().data(), layer.bias.data(), acts[li].data(),
                      acts[li + 1].data(), layer.out_features(), layer.in_features(),
                      blocks, relu);
    if (!relu) apply_activation(layer.act, acts[li + 1]);
  }

  // Softmax cross-entropy; padding lanes get delta = 0, so their backward
  // contributions vanish identically.
  const auto& logits = acts[n_layers];
  auto& delta = scratch.delta;
  delta.resize(blocks * n_out * kB);
  kernels.softmax_xent(logits.data(), scratch.labels.data(), n, n_out, delta.data(), &loss);
  apply_activation_grad(model.layers().back().act, logits, delta);

  for (std::size_t li = n_layers; li-- > 0;) {
    const auto& layer = model.layer(li);
    kernels.layer_grad(delta.data(), acts[li].data(), grads.w[li].raw().data(),
                       grads.b[li].data(), layer.out_features(), layer.in_features(),
                       blocks, grad_scale);
    if (li == 0) break;
    // acts[li] is the post-activation output of layer li-1; a ReLU's
    // gradient is fused into the backward kernel.
    const Activation below = model.layer(li - 1).act;
    auto& prev_delta = scratch.prev_delta;
    prev_delta.resize(blocks * layer.in_features() * kB);
    kernels.layer_back(layer.weights.raw().data(), delta.data(),
                       below == Activation::kRelu ? acts[li].data() : nullptr,
                       prev_delta.data(), layer.out_features(), layer.in_features(),
                       blocks);
    if (below != Activation::kRelu) apply_activation_grad(below, acts[li], prev_delta);
    delta.swap(prev_delta);
  }
}

Trainer::Trainer(TrainConfig config) : config_(config) {
  if (config_.epochs == 0 || config_.batch_size == 0) {
    throw std::invalid_argument("Trainer: epochs and batch_size must be positive");
  }
  if (config_.lr <= 0.0) throw std::invalid_argument("Trainer: lr must be positive");
}

TrainResult Trainer::fit(Mlp& model, const Dataset& train, Rng& rng) {
  train.validate();
  return fit_validated(model, train, rng);
}

TrainResult Trainer::fit_validated(Mlp& model, const Dataset& train, Rng& rng) {
  if (train.size() == 0) throw std::invalid_argument("Trainer::fit: empty dataset");
  if (train.n_features() != model.input_size() || train.n_classes > model.output_size()) {
    throw std::invalid_argument("Trainer::fit: dataset/model shape mismatch");
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
  TrainResult result;
  result.epoch_loss.reserve(config_.epochs);
  double lr = config_.lr;

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    if (config_.shuffle) rng.shuffle(order);
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < order.size(); start += config_.batch_size) {
      const std::size_t end = std::min(order.size(), start + config_.batch_size);
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
                         scratch, epoch_loss);
      apply_update(model, grads, lr);
      if (projector_) projector_(model);
    }
    result.epoch_loss.push_back(epoch_loss / static_cast<double>(train.size()));
    lr *= config_.lr_decay;
  }
  return result;
}

void Trainer::reset_optimizer(const Mlp& model) {
  vel_w_.clear();
  m_w_.clear();
  v_w_.clear();
  vel_b_.clear();
  m_b_.clear();
  v_b_.clear();
  for (const auto& l : model.layers()) {
    vel_w_.emplace_back(l.out_features(), l.in_features());
    m_w_.emplace_back(l.out_features(), l.in_features());
    v_w_.emplace_back(l.out_features(), l.in_features());
    vel_b_.emplace_back(l.out_features(), 0.0);
    m_b_.emplace_back(l.out_features(), 0.0);
    v_b_.emplace_back(l.out_features(), 0.0);
  }
  step_ = 0;
}

void Trainer::apply_update(Mlp& model, const Gradients& grads, double lr) {
  ++step_;

  // Both optimizers update every element independently, so the whole step
  // runs through the vectorized elementwise kernels (bit-identical to the
  // scalar loops on every ISA — see nn/dense_simd.hpp).  Weight decay is
  // decoupled L2 on weights only; biases pass weight_decay = 0.
  const auto& kernels = simd::dense_kernels();
  simd::AdamStep step;
  if (config_.optimizer == Optimizer::kAdam) {
    step.beta1 = config_.adam_beta1;
    step.beta2 = config_.adam_beta2;
    step.bias_corr1 = 1.0 - std::pow(step.beta1, static_cast<double>(step_));
    step.bias_corr2 = 1.0 - std::pow(step.beta2, static_cast<double>(step_));
    step.lr = lr;
    step.eps = config_.adam_eps;
  }
  for (std::size_t li = 0; li < model.layer_count(); ++li) {
    auto& layer = model.layer(li);
    auto& w = layer.weights.raw();
    const auto& gw = grads.w[li].raw();
    auto& b = layer.bias;
    const auto& gb = grads.b[li];

    if (config_.optimizer == Optimizer::kSgd) {
      kernels.sgd(w.data(), gw.data(), vel_w_[li].raw().data(), w.size(),
                  config_.momentum, lr, config_.weight_decay);
      kernels.sgd(b.data(), gb.data(), vel_b_[li].data(), b.size(),
                  config_.momentum, lr, /*weight_decay=*/0.0);
    } else {
      step.weight_decay = config_.weight_decay;
      kernels.adam(w.data(), gw.data(), m_w_[li].raw().data(),
                   v_w_[li].raw().data(), w.size(), step);
      step.weight_decay = 0.0;
      kernels.adam(b.data(), gb.data(), m_b_[li].data(), v_b_[li].data(),
                   b.size(), step);
    }
  }
}

}  // namespace pnm

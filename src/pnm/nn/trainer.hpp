#ifndef PNM_NN_TRAINER_HPP
#define PNM_NN_TRAINER_HPP

/// \file trainer.hpp
/// \brief Mini-batch training for pnm::Mlp with the two hooks every
///        minimization technique in the paper needs:
///
///  * a *weight view* — a forward-time substitution of the weights used
///    for forward/backward while gradients are applied to the float master
///    copy.  With a quantizer view this is exactly straight-through-
///    estimator quantization-aware training (the QKeras role in the paper);
///  * a *projector* — run after every optimizer step to re-impose a
///    constraint on the master weights: pruning masks re-zero pruned
///    connections, clustering re-averages each cluster to a shared value.
///
/// Every program trains with one recipe: Adam on the softmax
/// cross-entropy of the output logits, over shuffled minibatches of
/// kTrainBatch at a constant learning rate.  TrainConfig sets only the
/// epochs and the learning rate.

#include <functional>
#include <vector>

#include "pnm/data/dataset.hpp"
#include "pnm/nn/mlp.hpp"
#include "pnm/util/rng.hpp"

namespace pnm {

/// The fine-tuning numerics generation: the minibatch backprop below with
/// the kernel table's fast softmax.  eval_fingerprint (core/campaign.hpp)
/// hashes it, so stored results never mix generations.  A change that
/// moves any fine-tuned bit (nn_trainer_golden_test's digests) bumps it in
/// the same change.
inline constexpr const char* kFinetuneMath = "fast-blocked";

/// Gradients of the loss w.r.t. one network's parameters.
struct Gradients {
  std::vector<Matrix> w;                 ///< same shapes as the layers' weights
  std::vector<std::vector<double>> b;    ///< same shapes as the biases

  /// Allocates zero gradients shaped like the model.
  static Gradients zeros_like(const Mlp& model);
};

/// Reusable buffers for the minibatch backprop path.  Layer buffers hold
/// the minibatch as consecutive 8-lane SoA blocks (nn/dense_simd.hpp's
/// blocked layout).  One scratch per fit(): every buffer is fully
/// overwritten before it is read.
struct BlockBackpropScratch {
  std::vector<const double*> rows;        ///< the minibatch's feature rows
  std::vector<std::vector<double>> acts;  ///< blocked activations per layer
  std::vector<double> delta;              ///< blocked dL/d(layer output)
  std::vector<double> prev_delta;         ///< blocked back-propagated delta
  std::vector<std::size_t> labels;        ///< the minibatch's class labels
};

/// Minibatch backprop, the one fine-tuning arithmetic (kFinetuneMath):
/// runs the n samples train.x[idx[0..n)] through forward + backward
/// together as ceil(n/8) SoA blocks, one kernel call per layer and
/// direction for the whole minibatch (nn/dense_simd.hpp), with the kernel
/// table's fast softmax cross-entropy gradient (fast_exp,
/// nn/fastmath.hpp).  The output layer's values are the logits, so it
/// must be identity, as Trainer::fit requires.  Stores grad_scale times
/// dL/dparams summed over the minibatch into grads, overwriting every
/// element (the trainer passes 1/n for the mean gradient): each element
/// is summed from +0.0 block by block and then scaled, the operations of
/// zeroing grads, accumulating each block and scaling it afterwards.
/// Padding lanes of the last block are zero-filled and their deltas
/// zeroed, so they contribute nothing.  The result is the same bit for
/// bit as summing one-block calls from +0.0 in block order, on every
/// kernel table.  The per-sample and libm-softmax references it is gated
/// against (accuracy-neutral, not bit-identical) live in
/// tests/trainer_reference.hpp.
/// \throws std::invalid_argument when a label is not below the model's
///         output width.
void backprop_minibatch(const Mlp& model, const Dataset& train, const std::size_t* idx,
                        std::size_t n, double grad_scale, Gradients& grads,
                        BlockBackpropScratch& scratch);

/// Minibatch size of the one training recipe.  The rest of the recipe is
/// fixed as well: Adam at simd::AdamStep's beta1, beta2 and eps
/// (nn/dense_simd.hpp), a fresh shuffle of the training set every epoch,
/// and a constant learning rate.
inline constexpr std::size_t kTrainBatch = 32;

/// What a program chooses about training: how long, and how fast.
struct TrainConfig {
  std::size_t epochs = 60;
  double lr = 3e-3;

  /// \throws std::invalid_argument when epochs is 0 or lr is not a finite
  ///         positive number.
  void validate() const;
};

/// Runs mini-batch training on `model` in place.
class Trainer {
 public:
  /// Substitutes the weights used in the forward/backward pass (STE). The
  /// callee receives the master model and the view model, a copy of the
  /// master made once per fit() and then reused for every step.  The view
  /// must rewrite every weight and every bias of it from the master on
  /// each call, as fake_quantize_mlp (core/quantize.hpp) does: whatever it
  /// leaves alone keeps the previous step's value.
  using WeightView = std::function<void(const Mlp& master, Mlp& view)>;
  /// Constraint re-imposed on the master model after each optimizer step.
  using Projector = std::function<void(Mlp& master)>;

  /// \throws std::invalid_argument via TrainConfig::validate.
  explicit Trainer(TrainConfig config);

  void set_weight_view(WeightView view) { view_ = std::move(view); }
  void set_projector(Projector projector) { projector_ = std::move(projector); }

  /// Trains `model` in place. Deterministic given rng.  Every call starts
  /// from fresh optimizer state sized to `model`, so one Trainer may fit
  /// any sequence of models.
  /// \throws std::invalid_argument when `train` fails Dataset::validate,
  ///         is empty, or does not fit the model's shape, or when the
  ///         model's output layer is not identity.
  void fit(Mlp& model, const Dataset& train, Rng& rng);

  [[nodiscard]] const TrainConfig& config() const { return config_; }

 private:
  // PipelineEvaluator (core/eval.hpp) validates its training split once,
  // when it is built, and fine-tunes every genome on that split without
  // repeating the O(samples x features) Dataset::validate scan: fit()
  // minus that scan, with every other check kept.
  friend class PipelineEvaluator;
  void fit_validated(Mlp& model, const Dataset& train, Rng& rng);

  void reset_optimizer(const Mlp& model);
  void apply_update(Mlp& model, const Gradients& grads);

  TrainConfig config_;
  WeightView view_;
  Projector projector_;
  // Adam's moments, zeroed and sized to the model at the start of fit().
  std::vector<Matrix> m_w_, v_w_;
  std::vector<std::vector<double>> m_b_, v_b_;
  long step_ = 0;
};

}  // namespace pnm

#endif  // PNM_NN_TRAINER_HPP

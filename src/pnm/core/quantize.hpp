#ifndef PNM_CORE_QUANTIZE_HPP
#define PNM_CORE_QUANTIZE_HPP

/// \file quantize.hpp
/// \brief Symmetric uniform weight quantization and quantization-aware
///        training (the paper's §II-A, QKeras role).
///
/// Weights are quantized per layer to signed integers of b bits with a
/// shared positive scale:
///     scale = max|w| / (2^(b-1) - 1)
///     q     = clamp(round(w / scale), -(2^(b-1)-1), 2^(b-1)-1)
/// The symmetric range (no -2^(b-1)) keeps |q| <= 2^(b-1)-1, which both
/// QKeras' quantized_bits and bespoke-multiplier sizing assume.  Two
/// properties matter for composing with the other techniques and are unit
/// tested: zero maps to zero (pruning survives quantization) and equal
/// values map to equal codes (clustering survives quantization).
///
/// QAT uses the straight-through estimator: the forward/backward pass sees
/// the fake-quantized weights while updates land on float shadow weights —
/// expressed with Trainer's weight-view hook.
///
/// Input quantization is per *dataset*, not per model: every candidate the
/// GA evaluates shares one sensor precision, so QuantizedDataset encodes a
/// dataset once into one blocked integer buffer that all genome
/// evaluations (and all threads) read concurrently.

#include <cstdint>
#include <string>
#include <vector>

#include "pnm/core/infer_simd.hpp"
#include "pnm/data/dataset.hpp"
#include "pnm/nn/mlp.hpp"
#include "pnm/nn/trainer.hpp"

namespace pnm {

/// Per-network quantization spec: weight bits per layer + input bits,
/// plus (optionally) precision-scaled accumulation.
struct QuantSpec {
  std::vector<int> weight_bits;  ///< one entry per layer, each in [2, 16]
  int input_bits = 4;            ///< unsigned input precision (sensor word)

  /// Accumulator truncation per layer (extension; empty = exact).  Each
  /// product magnitude and the bias code are floor-shifted right by this
  /// many bits before the neuron's adder chain:
  ///     term = sign(w) * ((|w| * x) >> s),   acc = (bias >> s) + sum terms
  /// which narrows every accumulate-stage adder by s bits — an
  /// approximate-computing knob attacking the stage that dominates
  /// bespoke area (cf. the paper's Index Terms and Armeniakos et al.,
  /// DATE 2022).  Entries in [0, 12].
  std::vector<int> acc_shift;

  /// Same bit-width for every layer (exact accumulation).
  static QuantSpec uniform(std::size_t n_layers, int bits, int input_bits = 4);

  void validate(std::size_t n_layers) const;
};

/// Scale for one weight matrix at the given bit-width (0 if all-zero).
double quantization_scale(const Matrix& w, int bits);

/// Integer codes of one weight matrix (row-major, same layout as Matrix).
std::vector<int> quantize_codes(const Matrix& w, int bits, double scale);

/// Fake quantization: returns codes * scale (what the QAT forward sees).
Matrix fake_quantize(const Matrix& w, int bits);

/// In-place fake quantization into `out` (reshaped only if needed) — the
/// QAT weight view runs once per optimizer step, so this avoids a Matrix
/// and a code-vector allocation per layer per step.  Identical arithmetic
/// to fake_quantize.
void fake_quantize_into(const Matrix& w, int bits, Matrix& out);

/// Fake quantization of the n weights at `w` into `out` (which may alias
/// `w`), at the scale quantization_scale gives a matrix of exactly these
/// weights: every output is +0.0 when their largest magnitude is 0.  Runs
/// through the kernel table's abs_max and fake_quantize, so a layer whose
/// other weights are all +0.0 gets, at these weights, the same bits as
/// fake_quantize_into of the whole layer — how Trainer::fit_live
/// (nn/trainer.hpp) views only a layer's live weights.
/// \throws std::invalid_argument when bits is outside [2, 16].
void fake_quantize_values(const double* w, double* out, std::size_t n, int bits);

/// Applies fake quantization to every layer of `view` per the spec.
void fake_quantize_mlp(const Mlp& master, Mlp& view, const QuantSpec& spec);

/// Trainer weight-view implementing STE QAT for the given spec.
Trainer::WeightView make_qat_view(QuantSpec spec);

/// Quantizes a [0,1]-scaled sample to unsigned input codes in
/// [0, 2^input_bits - 1]: each feature is clamped to [0,1], scaled by
/// 2^input_bits - 1 and rounded to nearest, ties away from zero (exactly
/// std::llround).  Every input has a defined code: -inf and negatives map
/// to 0, +inf and values above 1 to the top code, and NaN to 0, so no
/// client-supplied feature can push the integer forward pass out of range.
std::vector<std::int64_t> quantize_input(const std::vector<double>& x, int input_bits);

/// Allocation-free variant: writes the codes into `out` (resized to
/// x.size(), reusing its capacity).  Identical mapping to quantize_input.
void quantize_input_into(const std::vector<double>& x, int input_bits,
                         std::vector<std::int64_t>& out);

/// A classification dataset quantized once at a fixed sensor precision,
/// held once, in the sample-blocked (SoA) layout the multi-sample engine
/// reads: samples are grouped into blocks of simd::kSampleBlock; within
/// block b, feature f of lane j (= sample b*kSampleBlock + j) lives at
///     xb[b * n_features * kSampleBlock + f * kSampleBlock + j].
/// Lanes past size() in the last block are zero (the accuracy loop never
/// reads their outputs).  Immutable after construction and therefore safe
/// to share read-only across every genome evaluation and every worker
/// thread — an evaluator quantizes the split it scores once per
/// input_bits instead of re-deriving the codes per candidate and per
/// sample.
struct QuantizedDataset {
  std::string name;               ///< source dataset name
  int input_bits = 4;             ///< precision the codes were derived at
  std::size_t n_features = 0;
  std::size_t n_classes = 0;
  std::vector<std::int64_t> xb;   ///< blocked codes, layout above
  std::vector<std::size_t> y;     ///< class labels, one per sample

  [[nodiscard]] std::size_t size() const { return y.size(); }

  /// Number of sample blocks (ceil over kSampleBlock).
  [[nodiscard]] std::size_t block_count() const {
    return (size() + simd::kSampleBlock - 1) / simd::kSampleBlock;
  }
  /// Start of block b in the blocked buffer.
  [[nodiscard]] const std::int64_t* block(std::size_t b) const {
    return xb.data() + b * n_features * simd::kSampleBlock;
  }
};

/// Encodes `data` at the given sensor precision (the same mapping as
/// quantize_input, applied to every sample) straight into its lanes.
/// Validates the dataset.
QuantizedDataset quantize_dataset(const Dataset& data, int input_bits);

}  // namespace pnm

#endif  // PNM_CORE_QUANTIZE_HPP

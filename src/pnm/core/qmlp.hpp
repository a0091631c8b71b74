#ifndef PNM_CORE_QMLP_HPP
#define PNM_CORE_QMLP_HPP

/// \file qmlp.hpp
/// \brief Integer ("golden model") inference of a quantized MLP — the exact
///        arithmetic the bespoke printed circuit implements.
///
/// The key observation that makes bespoke integer circuits equal to the
/// fake-quantized float model (DESIGN.md §5): ReLU commutes with positive
/// scaling and argmax is invariant to a shared positive scale, so with one
/// weight scale per layer the per-layer activation scale factors out
/// entirely — provided the bias is rescaled into the layer's accumulator
/// unit (bias_code = round(bias / (weight_scale * input_scale))).  This
/// class carries the integer weights/biases and performs exact integer
/// inference: int64 per sample, and per block in the narrowest lanes its
/// exact accumulator ranges allow (lane_bits); pnm::hw lowers it
/// gate-by-gate and tests verify bit-exact agreement between the two.
///
/// Storage is a flat CSR-style layout: pruned genomes are mostly zeros, so
/// each layer keeps only its nonzero codes as contiguous signed-magnitude
/// entries (|code| + sign + column index) with one offset per row.  The
/// GA's fitness inner loop streams thousands of candidate models over the
/// same dataset, and the packed layout turns the hot MAC loop into linear
/// walks over three parallel arrays — no pointer chasing, no per-sample
/// allocation (see forward_into / InferScratch / QuantizedDataset).

#include <cstdint>
#include <span>
#include <vector>

#include "pnm/core/infer_simd.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/data/dataset.hpp"
#include "pnm/nn/mlp.hpp"

namespace pnm {

/// Inclusive integer interval; used for exact datapath sizing.
struct ValueRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// One integer layer: y = act((bias >> s) + sum sign(w)*((|w| x) >> s)),
/// where s = acc_shift (0 = exact MAC, y = act(Wq x + bq)).
///
/// Weights are stored sparse: entry k in [row_offset[r], row_offset[r+1])
/// is the k-th nonzero of row r, with magnitude w_mag[k] (> 0), sign
/// w_neg[k] and column w_col[k].  Entries are in ascending column order
/// within a row, so iteration order matches the dense [out][in] layout the
/// seed implementation used — every consumer (forward pass, range
/// analysis, circuit generators) sees the nonzeros in the same sequence.
struct QuantizedLayer {
  std::vector<std::int32_t> w_mag;     ///< |code| per nonzero, < 2^(bits-1)
  std::vector<std::uint8_t> w_neg;     ///< 1 where the code is negative
  std::vector<std::int32_t> w_val;     ///< signed code (= w_neg ? -w_mag : w_mag)
  std::vector<std::uint32_t> w_col;    ///< input column per nonzero
  std::vector<std::size_t> row_offset; ///< size out_features()+1; CSR rows
  std::vector<std::int64_t> bias;      ///< accumulator-unit bias codes (un-shifted)
  int weight_bits = 8;
  /// Product/bias truncation before accumulation (QuantSpec::acc_shift).
  /// The shift applies to the product *magnitude* (then the sign), exactly
  /// as the bespoke datapath drops product LSBs before the add/sub rows.
  int acc_shift = 0;
  Activation act = Activation::kIdentity;
  double weight_scale = 0.0;  ///< codes * scale ~= float weights

  [[nodiscard]] std::size_t out_features() const {
    return row_offset.empty() ? 0 : row_offset.size() - 1;
  }
  [[nodiscard]] std::size_t in_features() const { return in_features_; }
  /// Number of stored (nonzero) weight codes.
  [[nodiscard]] std::size_t nonzeros() const { return w_mag.size(); }

  /// Signed code of stored entry k (sign applied to the magnitude).
  [[nodiscard]] int code(std::size_t k) const {
    return w_neg[k] ? -w_mag[k] : w_mag[k];
  }

  /// Random access to the logical dense weight (0 where no entry is
  /// stored).  Linear in the row's nonzeros — for tests and exporters,
  /// not for inner loops.
  [[nodiscard]] int weight(std::size_t r, std::size_t c) const;

  /// The dense [out][in] weight matrix the seed implementation stored —
  /// golden tests and reference paths rebuild it from the CSR form.
  [[nodiscard]] std::vector<std::vector<int>> dense_weights() const;

  /// Per input column, the |code| of every nonzero in ascending row order
  /// (duplicates kept) — the coefficient multiset the MCM planner shares
  /// one shift-add DAG over.  The bespoke generator and the area proxy
  /// both consume this, so they price/build exactly the same grouping.
  [[nodiscard]] std::vector<std::vector<std::int64_t>> column_magnitudes() const;

  /// Replaces the sparse storage from a dense row-major code array
  /// (zeros are skipped structurally).
  void set_dense(std::size_t out_f, std::size_t in_f, const std::vector<int>& codes);

 private:
  std::size_t in_features_ = 0;
};

/// Reusable inference scratch: two ping-pong activation buffers sized to
/// the widest layer.  One instance per thread (or per call chain) removes
/// every per-sample allocation from the forward pass.
struct InferScratch {
  std::vector<std::int64_t> cur;
  std::vector<std::int64_t> next;
  std::vector<std::int64_t> xq;  ///< input-quantization staging buffer
};

/// Scratch for the multi-sample engine: ping-pong *blocked* activation
/// buffers (layer width x simd::kSampleBlock, in the model's lane width)
/// plus a staging block for callers that assemble lanes by hand (the serve
/// workers).  One instance per thread, reused across blocks — no
/// per-block allocation.
struct BlockScratch {
  std::vector<std::int64_t> cur;    ///< 64-bit lanes, and widened logits
  std::vector<std::int64_t> next;
  std::vector<std::int32_t> cur32;  ///< 32-bit lanes (narrowed inputs first)
  std::vector<std::int32_t> next32;
  std::vector<std::int64_t> xb;   ///< caller-side input lane staging
  std::vector<std::int64_t> xq;   ///< per-request quantization staging
};

/// Integer MLP: the bit-exact software twin of the bespoke circuit.
class QuantizedMlp {
 public:
  QuantizedMlp() = default;

  /// Quantizes a trained float model per the spec.  Inputs are assumed
  /// min-max scaled to [0, 1] (see MinMaxScaler); hidden activations must
  /// be ReLU and the output layer identity, or lowering is impossible.
  /// \throws std::invalid_argument when an accumulator range of the
  ///         result leaves int64 (as from_layers does).
  static QuantizedMlp from_float(const Mlp& model, const QuantSpec& spec);

  /// Builds a model from already-quantized layers (deserialization; see
  /// core/model_io.hpp).  Validates structural consistency: a non-empty
  /// layer stack with matching in/out widths, well-formed CSR arrays
  /// (parallel array sizes, monotone row offsets, in-range ascending
  /// columns, magnitude/sign/value agreement), per-layer bias width,
  /// sane bit-width/shift ranges, and exact accumulator ranges (every
  /// product and partial-sum bound of neuron_preact_ranges' walk) that
  /// fit int64, so integer inference never overflows.
  ///
  /// \param layers      the integer layers, input-first.
  /// \param input_bits  unsigned sensor precision the model expects.
  /// \return the assembled model.
  /// \throws std::invalid_argument  on any structural violation.
  static QuantizedMlp from_layers(std::vector<QuantizedLayer> layers, int input_bits);

  [[nodiscard]] std::size_t layer_count() const { return layers_.size(); }
  [[nodiscard]] const QuantizedLayer& layer(std::size_t i) const { return layers_.at(i); }
  [[nodiscard]] const std::vector<QuantizedLayer>& layers() const { return layers_; }
  [[nodiscard]] int input_bits() const { return input_bits_; }
  /// Lane width of the blocked engine, chosen once when the model is
  /// built: 32 when, in the exact range walk, every bias, running
  /// partial-sum bound and product |w| * x_max of every layer lies in
  /// [-2^31, 2^31), so int32 lanes compute the int64 engine's values;
  /// 64 otherwise.
  [[nodiscard]] int lane_bits() const { return lane_bits_; }
  [[nodiscard]] std::size_t input_size() const;
  [[nodiscard]] std::size_t output_size() const;

  /// Integer forward pass on already-quantized inputs; returns the output
  /// layer's accumulator values.
  [[nodiscard]] std::vector<std::int64_t> forward(const std::vector<std::int64_t>& xq) const;

  /// Allocation-free forward pass: streams the sample through
  /// scratch.cur/scratch.next and returns a view of the output values
  /// (valid until the scratch is reused).  Bit-exact with forward().
  std::span<const std::int64_t> forward_into(std::span<const std::int64_t> xq,
                                             InferScratch& scratch) const;

  /// Predicted class from quantized inputs (argmax, lowest index on ties —
  /// identical tie-break to the hardware comparator tree).
  [[nodiscard]] std::size_t predict_quantized(const std::vector<std::int64_t>& xq) const;

  /// Allocation-free variant of predict_quantized.
  std::size_t predict_quantized_into(std::span<const std::int64_t> xq,
                                     InferScratch& scratch) const;

  /// Quantizes a [0,1] float sample and predicts.
  [[nodiscard]] std::size_t predict(const std::vector<double>& x) const;

  /// Accuracy of the integer model on a float dataset: quantizes it at
  /// this model's input_bits (quantize_dataset), then scores the codes
  /// through the QuantizedDataset overload.
  [[nodiscard]] double accuracy(const Dataset& data) const;

  /// Batched accuracy over a pre-quantized dataset: the blocked engine on
  /// every block (in 32-bit lanes, two blocks per weight visit) through
  /// the kernel of `isa` (the runtime-dispatched one by default; the
  /// cross-engine tests and the bench's scalar-vs-SIMD rows pass one
  /// explicitly), with one scratch and no allocation per block.  Every ISA predicts bit-exactly what forward_into does per
  /// sample.  Throws if the dataset is empty, was quantized at other
  /// input_bits or another feature count, or when no kernel for `isa` is
  /// available on this machine.
  [[nodiscard]] double accuracy(const QuantizedDataset& data,
                                simd::Isa isa = simd::active_isa()) const;

  /// Multi-sample forward pass over one block of simd::kSampleBlock
  /// samples in the blocked layout (QuantizedDataset::block /
  /// BlockScratch::xb), whose codes lie in [0, 2^input_bits) like
  /// quantize_input's.  Runs in lane_bits() lanes and returns the blocked
  /// output logits as int64 — row r, lane j at [r * kSampleBlock + j],
  /// valid until the scratch is reused.  Lane j is bit-exact with
  /// forward_into on sample j.
  std::span<const std::int64_t> forward_block_into(const std::int64_t* xb,
                                                   BlockScratch& scratch,
                                                   simd::Isa isa) const;

  /// Blocked predict: argmax (lowest index on ties, like
  /// predict_quantized) of each of the first `lanes` lanes of one block,
  /// written to preds[0..lanes).
  void predict_block_into(const std::int64_t* xb, std::size_t lanes,
                          BlockScratch& scratch, std::size_t* preds,
                          simd::Isa isa) const;

  /// Exact pre-activation range of every neuron, per layer, derived from
  /// the hard-wired weights and the (per-neuron) input ranges — what the
  /// hardware generator uses to size each adder/accumulator.
  /// Element [li][n] is the range of layer li, neuron n, before activation.
  /// Every add and multiply of the walk is overflow-checked; the builders
  /// refuse a model whose walk overflows, so a built model's never does.
  [[nodiscard]] std::vector<std::vector<ValueRange>> neuron_preact_ranges() const;

  /// Total / per-layer count of nonzero weight codes (pruned connections
  /// have no multiplier in the circuit).
  [[nodiscard]] std::size_t nonzero_weights() const;

  /// Distinct (input column, |code|>1) products per layer — the number of
  /// physical constant multipliers after cross-neuron sharing; |code| of 0
  /// or a power of two costs no multiplier (wiring only).  This is the
  /// quantity weight clustering minimizes (§II-C).
  [[nodiscard]] std::vector<std::size_t> shared_multiplier_counts() const;

 private:
  /// Runs the checked range walk on a freshly built model and sets
  /// lane_bits_.  \throws std::invalid_argument when a range leaves int64.
  void choose_lanes(const char* who);

  std::vector<QuantizedLayer> layers_;
  int input_bits_ = 4;
  int lane_bits_ = 64;
};

}  // namespace pnm

#endif  // PNM_CORE_QMLP_HPP

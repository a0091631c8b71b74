#include "pnm/core/qmlp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>

#include "pnm/util/bits.hpp"

namespace pnm {
namespace {

constexpr std::int64_t kInt32Min = std::numeric_limits<std::int32_t>::min();
constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();

bool fits_int32(std::int64_t v) { return v >= kInt32Min && v <= kInt32Max; }

/// neuron_preact_ranges' walk with every add and multiply checked: throws
/// std::overflow_error when a bound leaves int64.  Stores the ranges in
/// `ranges` unless it is null, and returns the lane rule: whether every
/// bias, running partial-sum bound and product bound |w| * x_max lies in
/// int32.  The engines add the same terms in the same CSR order, so these
/// bounds hold every value they compute.
bool walk_ranges(const std::vector<QuantizedLayer>& layers, int input_bits,
                 std::vector<std::vector<ValueRange>>* ranges) {
  // The lane rule needs only the extremes: every bias and running bound
  // lies in [low, high] (lo <= hi holds at every step), every product
  // bound in [0, p_top].
  std::int64_t low = 0;
  std::int64_t high = 0;
  std::int64_t p_top = 0;
  bool overflow = false;
  std::vector<ValueRange> in(layers.front().in_features(),
                             ValueRange{0, unsigned_max(input_bits)});
  std::vector<ValueRange> out;
  if (ranges != nullptr) ranges->assign(layers.size(), {});
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const QuantizedLayer& l = layers[li];
    const int s = l.acc_shift;
    out.resize(l.out_features());
    for (std::size_t r = 0; r < l.out_features(); ++r) {
      std::int64_t lo = l.bias[r] >> s;
      std::int64_t hi = lo;
      low = std::min(low, l.bias[r]);
      high = std::max(high, l.bias[r]);
      for (std::size_t k = l.row_offset[r]; k < l.row_offset[r + 1]; ++k) {
        const std::int64_t mag = l.w_mag[k];
        const ValueRange x = in[l.w_col[k]];
        // |w| * max|x| bounds every product this weight forms, so checking
        // it keeps each product, and its negation, inside int64.
        std::int64_t neg_lo = 0;
        std::int64_t p_max = 0;
        overflow |= __builtin_sub_overflow(std::int64_t{0}, x.lo, &neg_lo);
        overflow |= __builtin_mul_overflow(mag, std::max(x.hi, neg_lo), &p_max);
        if (overflow) throw std::overflow_error("range walk: int64 overflow");
        // Truncated-magnitude term range (monotone in x, so exact).
        const std::int64_t t_lo = (mag * x.lo) >> s;
        const std::int64_t t_hi = (mag * x.hi) >> s;
        overflow |= __builtin_add_overflow(lo, l.w_neg[k] ? -t_hi : t_lo, &lo);
        overflow |= __builtin_add_overflow(hi, l.w_neg[k] ? -t_lo : t_hi, &hi);
        p_top = std::max(p_top, p_max);
        low = std::min(low, lo);
        high = std::max(high, hi);
      }
      if (overflow) throw std::overflow_error("range walk: int64 overflow");
      if (ranges != nullptr) (*ranges)[li].push_back(ValueRange{lo, hi});
      out[r] = l.act == Activation::kRelu
                   ? ValueRange{std::max<std::int64_t>(0, lo), std::max<std::int64_t>(0, hi)}
                   : ValueRange{lo, hi};
    }
    in.swap(out);
  }
  return fits_int32(low) && fits_int32(high) && p_top <= kInt32Max;
}

simd::LayerBlockFn kernel_for(simd::Isa isa, const char* who) {
  const simd::LayerBlockFn fn = simd::layer_block_kernel(isa);
  if (fn == nullptr) {
    throw std::invalid_argument(std::string(who) + ": no " + simd::isa_name(isa) +
                                " kernel on this machine");
  }
  return fn;
}

/// Applies every layer to `blocks` blocks of Lane lanes starting at x
/// (which must not alias `next`), ping-ponging cur/next; returns the
/// output layer's blocked values, which end in `cur`.
template <class Lane>
const Lane* run_layers(const std::vector<QuantizedLayer>& layers, const Lane* x,
                       std::size_t blocks, void (*fn)(const simd::LayerBlockArgs<Lane>&),
                       std::vector<Lane>& cur, std::vector<Lane>& next) {
  for (const auto& l : layers) {
    next.resize(l.out_features() * blocks * simd::kSampleBlock);
    simd::LayerBlockArgs<Lane> args;
    args.x = x;
    args.out = next.data();
    args.bias = l.bias.data();
    args.w_val = l.w_val.data();
    args.w_mag = l.w_mag.data();
    args.w_neg = l.w_neg.data();
    args.w_col = l.w_col.data();
    args.row_offset = l.row_offset.data();
    args.out_features = l.out_features();
    args.blocks = blocks;
    args.acc_shift = l.acc_shift;
    args.relu = l.act == Activation::kRelu;
    fn(args);
    cur.swap(next);
    x = cur.data();
  }
  return x;
}

/// The blocked engine in 32-bit lanes over `blocks` blocks: narrows the
/// codes of the `present` consecutive blocks at xb once into feature rows
/// of blocks * kSampleBlock lanes (the lanes of absent blocks are 0), then
/// runs every layer.  Returns the output layer's lanes.
const std::int32_t* run_lanes32(const std::vector<QuantizedLayer>& layers,
                                const std::int64_t* xb, std::size_t blocks,
                                std::size_t present, simd::LayerBlockFn fn,
                                BlockScratch& scratch) {
  constexpr std::size_t kB = simd::kSampleBlock;
  const std::size_t n_in = layers.front().in_features();
  const std::size_t width = blocks * kB;
  scratch.cur32.resize(n_in * width);
  for (std::size_t i = 0; i < blocks; ++i) {
    for (std::size_t f = 0; f < n_in; ++f) {
      std::int32_t* lanes = scratch.cur32.data() + f * width + i * kB;
      if (i >= present) {
        std::fill(lanes, lanes + kB, 0);
        continue;
      }
      const std::int64_t* codes = xb + (i * n_in + f) * kB;
      for (std::size_t j = 0; j < kB; ++j) lanes[j] = static_cast<std::int32_t>(codes[j]);
    }
  }
  return run_layers<std::int32_t>(layers, scratch.cur32.data(), blocks, fn, scratch.cur32,
                                  scratch.next32);
}

/// Argmax (lowest index on ties: a later class must be strictly greater)
/// of the first `lanes` lanes of blocked logits holding W lanes per class.
/// Written as lane-wise selects: a branch on the logits mispredicts about
/// as often as the classes are close.
template <class Lane, std::size_t W>
void argmax_lanes(const Lane* out, std::size_t classes, std::size_t lanes,
                  std::size_t* preds) {
  Lane best[W];
  Lane index[W];
  for (std::size_t j = 0; j < W; ++j) {
    best[j] = out[j];
    index[j] = 0;
  }
  for (std::size_t r = 1; r < classes; ++r) {
    const Lane* row = out + r * W;
    for (std::size_t j = 0; j < W; ++j) {
      const bool gt = row[j] > best[j];
      best[j] = gt ? row[j] : best[j];
      index[j] = gt ? static_cast<Lane>(r) : index[j];
    }
  }
  for (std::size_t j = 0; j < lanes; ++j) preds[j] = static_cast<std::size_t>(index[j]);
}

}  // namespace

int QuantizedLayer::weight(std::size_t r, std::size_t c) const {
  for (std::size_t k = row_offset.at(r); k < row_offset.at(r + 1); ++k) {
    if (w_col[k] == c) return code(k);
  }
  return 0;
}

std::vector<std::vector<int>> QuantizedLayer::dense_weights() const {
  std::vector<std::vector<int>> dense(out_features(), std::vector<int>(in_features(), 0));
  for (std::size_t r = 0; r < out_features(); ++r) {
    for (std::size_t k = row_offset[r]; k < row_offset[r + 1]; ++k) {
      dense[r][w_col[k]] = code(k);
    }
  }
  return dense;
}

std::vector<std::vector<std::int64_t>> QuantizedLayer::column_magnitudes() const {
  std::vector<std::vector<std::int64_t>> cols(in_features());
  for (std::size_t r = 0; r < out_features(); ++r) {
    for (std::size_t k = row_offset[r]; k < row_offset[r + 1]; ++k) {
      cols[w_col[k]].push_back(w_mag[k]);
    }
  }
  return cols;
}

void QuantizedLayer::set_dense(std::size_t out_f, std::size_t in_f,
                               const std::vector<int>& codes) {
  if (codes.size() != out_f * in_f) {
    throw std::invalid_argument("QuantizedLayer::set_dense: code count mismatch");
  }
  in_features_ = in_f;
  w_mag.clear();
  w_neg.clear();
  w_val.clear();
  w_col.clear();
  row_offset.assign(out_f + 1, 0);
  std::size_t nnz = 0;
  for (int v : codes) nnz += (v != 0) ? 1 : 0;
  w_mag.reserve(nnz);
  w_neg.reserve(nnz);
  w_val.reserve(nnz);
  w_col.reserve(nnz);
  for (std::size_t r = 0; r < out_f; ++r) {
    for (std::size_t c = 0; c < in_f; ++c) {
      const int v = codes[r * in_f + c];
      if (v == 0) continue;
      w_mag.push_back(v < 0 ? -v : v);
      w_neg.push_back(v < 0 ? 1 : 0);
      w_val.push_back(v);
      w_col.push_back(static_cast<std::uint32_t>(c));
    }
    row_offset[r + 1] = w_mag.size();
  }
}

QuantizedMlp QuantizedMlp::from_float(const Mlp& model, const QuantSpec& spec) {
  spec.validate(model.layer_count());
  if (model.layer_count() == 0) throw std::invalid_argument("QuantizedMlp: empty model");

  QuantizedMlp q;
  q.input_bits_ = spec.input_bits;
  // Activation scale entering layer 0: inputs in [0,1] are coded on
  // [0, 2^u - 1], so x ~= code * act_scale.
  double act_scale = 1.0 / static_cast<double>((1 << spec.input_bits) - 1);

  for (std::size_t li = 0; li < model.layer_count(); ++li) {
    const auto& layer = model.layer(li);
    QuantizedLayer ql;
    ql.weight_bits = spec.weight_bits[li];
    ql.acc_shift = spec.acc_shift.empty() ? 0 : spec.acc_shift[li];
    ql.act = layer.act;
    ql.weight_scale = quantization_scale(layer.weights, ql.weight_bits);
    const auto codes = quantize_codes(layer.weights, ql.weight_bits, ql.weight_scale);
    ql.set_dense(layer.out_features(), layer.in_features(), codes);

    // Accumulator unit = weight_scale * act_scale; fold the float bias in.
    const double acc_scale =
        ql.weight_scale > 0.0 ? ql.weight_scale * act_scale : 0.0;
    const std::size_t out_f = layer.out_features();
    ql.bias.assign(out_f, 0);
    for (std::size_t r = 0; r < out_f; ++r) {
      ql.bias[r] = acc_scale > 0.0
                       ? static_cast<std::int64_t>(std::llround(layer.bias[r] / acc_scale))
                       : 0;
    }

    // Truncation rescales the layer's integer outputs by 2^-shift.
    act_scale = (acc_scale > 0.0 ? acc_scale : act_scale) *
                static_cast<double>(std::int64_t{1} << ql.acc_shift);
    q.layers_.push_back(std::move(ql));
  }
  q.choose_lanes("QuantizedMlp::from_float");
  return q;
}

QuantizedMlp QuantizedMlp::from_layers(std::vector<QuantizedLayer> layers,
                                       int input_bits) {
  if (layers.empty()) throw std::invalid_argument("QuantizedMlp::from_layers: empty model");
  if (input_bits < 1 || input_bits > 16) {
    throw std::invalid_argument("QuantizedMlp::from_layers: input_bits out of range");
  }
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const QuantizedLayer& l = layers[li];
    const std::string where = "QuantizedMlp::from_layers: layer " + std::to_string(li);
    if (l.out_features() == 0 || l.in_features() == 0) {
      throw std::invalid_argument(where + ": empty layer");
    }
    if (li > 0 && l.in_features() != layers[li - 1].out_features()) {
      throw std::invalid_argument(where + ": input width does not match previous layer");
    }
    if (l.weight_bits < 2 || l.weight_bits > 16) {
      throw std::invalid_argument(where + ": weight_bits out of range");
    }
    if (l.acc_shift < 0 || l.acc_shift > 12) {
      throw std::invalid_argument(where + ": acc_shift out of range");
    }
    if (l.bias.size() != l.out_features()) {
      throw std::invalid_argument(where + ": bias width mismatch");
    }
    const std::size_t nnz = l.w_mag.size();
    if (l.w_neg.size() != nnz || l.w_val.size() != nnz || l.w_col.size() != nnz) {
      throw std::invalid_argument(where + ": CSR array sizes disagree");
    }
    if (l.row_offset.size() != l.out_features() + 1 || l.row_offset.front() != 0 ||
        l.row_offset.back() != nnz) {
      throw std::invalid_argument(where + ": bad row offsets");
    }
    const std::int64_t max_mag = (std::int64_t{1} << (l.weight_bits - 1)) - 1;
    for (std::size_t r = 0; r < l.out_features(); ++r) {
      if (l.row_offset[r] > l.row_offset[r + 1]) {
        throw std::invalid_argument(where + ": non-monotone row offsets");
      }
      for (std::size_t k = l.row_offset[r]; k < l.row_offset[r + 1]; ++k) {
        if (l.w_mag[k] <= 0 || l.w_mag[k] > max_mag) {
          throw std::invalid_argument(where + ": weight magnitude out of range");
        }
        if (l.w_neg[k] > 1 || l.w_val[k] != (l.w_neg[k] ? -l.w_mag[k] : l.w_mag[k])) {
          throw std::invalid_argument(where + ": sign/value disagreement");
        }
        if (l.w_col[k] >= l.in_features() ||
            (k > l.row_offset[r] && l.w_col[k] <= l.w_col[k - 1])) {
          throw std::invalid_argument(where + ": columns not ascending in-range");
        }
      }
    }
  }
  QuantizedMlp q;
  q.input_bits_ = input_bits;
  q.layers_ = std::move(layers);
  q.choose_lanes("QuantizedMlp::from_layers");
  return q;
}

void QuantizedMlp::choose_lanes(const char* who) {
  try {
    lane_bits_ = walk_ranges(layers_, input_bits_, nullptr) ? 32 : 64;
  } catch (const std::overflow_error&) {
    throw std::invalid_argument(std::string(who) + ": accumulator range overflows int64");
  }
}

std::size_t QuantizedMlp::input_size() const {
  return layers_.empty() ? 0 : layers_.front().in_features();
}

std::size_t QuantizedMlp::output_size() const {
  return layers_.empty() ? 0 : layers_.back().out_features();
}

std::span<const std::int64_t> QuantizedMlp::forward_into(
    std::span<const std::int64_t> xq, InferScratch& scratch) const {
  if (layers_.empty()) throw std::logic_error("QuantizedMlp::forward: empty model");
  if (xq.size() != input_size()) {
    throw std::invalid_argument("QuantizedMlp::forward: bad input size");
  }
  // The first layer reads the caller's buffer directly (no staging copy);
  // thereafter the ping-pong scratch buffers alternate.
  const std::int64_t* x = xq.data();
  for (const auto& l : layers_) {
    const int s = l.acc_shift;
    const std::size_t out_f = l.out_features();
    scratch.next.resize(out_f);
    const std::uint32_t* col = l.w_col.data();
    const bool relu = l.act == Activation::kRelu;
    if (s == 0) {
      // Exact MAC: sign(w) * ((|w| x) >> 0) == w * x, so the fast path
      // multiplies the signed code directly — identical values, no
      // per-term select.
      const std::int32_t* val = l.w_val.data();
      for (std::size_t r = 0; r < out_f; ++r) {
        std::int64_t acc = l.bias[r];
        for (std::size_t k = l.row_offset[r]; k < l.row_offset[r + 1]; ++k) {
          acc += static_cast<std::int64_t>(val[k]) * x[col[k]];
        }
        if (relu && acc < 0) acc = 0;
        scratch.next[r] = acc;
      }
    } else {
      // Magnitude-truncate, then apply the sign (matches the bespoke
      // datapath, which drops product LSBs before the add/sub row).
      const std::int32_t* mag = l.w_mag.data();
      const std::uint8_t* neg = l.w_neg.data();
      for (std::size_t r = 0; r < out_f; ++r) {
        std::int64_t acc = l.bias[r] >> s;  // arithmetic shift: floor
        for (std::size_t k = l.row_offset[r]; k < l.row_offset[r + 1]; ++k) {
          const std::int64_t t = (static_cast<std::int64_t>(mag[k]) * x[col[k]]) >> s;
          acc += neg[k] ? -t : t;
        }
        if (relu && acc < 0) acc = 0;
        scratch.next[r] = acc;
      }
    }
    scratch.cur.swap(scratch.next);
    x = scratch.cur.data();
  }
  return {scratch.cur.data(), scratch.cur.size()};
}

std::span<const std::int64_t> QuantizedMlp::forward_block_into(
    const std::int64_t* xb, BlockScratch& scratch, simd::Isa isa) const {
  if (layers_.empty()) throw std::logic_error("QuantizedMlp::forward_block: empty model");
  const simd::LayerBlockFn fn = kernel_for(isa, "QuantizedMlp::forward_block");
  if (lane_bits_ == 64) {
    run_layers<std::int64_t>(layers_, xb, 1, &simd::layer_block_int64, scratch.cur,
                             scratch.next);
  } else {
    const std::int32_t* out = run_lanes32(layers_, xb, 1, 1, fn, scratch);
    scratch.cur.assign(out, out + output_size() * simd::kSampleBlock);
  }
  return {scratch.cur.data(), scratch.cur.size()};
}

void QuantizedMlp::predict_block_into(const std::int64_t* xb, std::size_t lanes,
                                      BlockScratch& scratch, std::size_t* preds,
                                      simd::Isa isa) const {
  constexpr std::size_t kB = simd::kSampleBlock;
  lanes = std::min(lanes, kB);
  if (lane_bits_ == 64) {
    argmax_lanes<std::int64_t, kB>(forward_block_into(xb, scratch, isa).data(), output_size(),
                                   lanes, preds);
    return;
  }
  const std::int32_t* out =
      run_lanes32(layers_, xb, 1, 1, kernel_for(isa, "QuantizedMlp::predict_block"), scratch);
  argmax_lanes<std::int32_t, kB>(out, output_size(), lanes, preds);
}

std::vector<std::int64_t> QuantizedMlp::forward(const std::vector<std::int64_t>& xq) const {
  InferScratch scratch;
  const auto out = forward_into(xq, scratch);
  return {out.begin(), out.end()};
}

std::size_t QuantizedMlp::predict_quantized_into(std::span<const std::int64_t> xq,
                                                 InferScratch& scratch) const {
  const auto out = forward_into(xq, scratch);
  std::size_t best = 0;
  for (std::size_t i = 1; i < out.size(); ++i) {
    if (out[i] > out[best]) best = i;
  }
  return best;
}

std::size_t QuantizedMlp::predict_quantized(const std::vector<std::int64_t>& xq) const {
  InferScratch scratch;
  return predict_quantized_into(xq, scratch);
}

std::size_t QuantizedMlp::predict(const std::vector<double>& x) const {
  return predict_quantized(quantize_input(x, input_bits_));
}

double QuantizedMlp::accuracy(const Dataset& data) const {
  return accuracy(quantize_dataset(data, input_bits_));
}

double QuantizedMlp::accuracy(const QuantizedDataset& data, simd::Isa isa) const {
  constexpr std::size_t kB = simd::kSampleBlock;
  if (data.size() == 0) throw std::invalid_argument("QuantizedMlp::accuracy: empty data");
  if (data.input_bits != input_bits_) {
    throw std::invalid_argument(
        "QuantizedMlp::accuracy: dataset quantized at different input_bits");
  }
  if (data.n_features != input_size() ||
      data.xb.size() != data.block_count() * data.n_features * kB) {
    throw std::invalid_argument("QuantizedMlp::accuracy: feature count or code buffer mismatch");
  }
  const simd::LayerBlockFn fn = kernel_for(isa, "QuantizedMlp::accuracy");
  // In 32-bit lanes kPassBlocks blocks share each weight visit; the last
  // group's missing blocks run as zero lanes nobody reads.
  const std::size_t step = lane_bits_ == 32 ? simd::kPassBlocks : 1;
  BlockScratch scratch;
  std::size_t preds[simd::kPassBlocks * kB] = {};
  std::size_t correct = 0;
  for (std::size_t b = 0; b < data.block_count(); b += step) {
    const std::size_t lanes = std::min(step * kB, data.size() - b * kB);
    if (lane_bits_ == 32) {
      const std::size_t present = std::min(step, data.block_count() - b);
      const std::int32_t* out = run_lanes32(layers_, data.block(b), step, present, fn, scratch);
      argmax_lanes<std::int32_t, simd::kPassBlocks * kB>(out, output_size(), lanes, preds);
    } else {
      predict_block_into(data.block(b), lanes, scratch, preds, isa);
    }
    for (std::size_t j = 0; j < lanes; ++j) {
      correct += preds[j] == data.y[b * kB + j] ? 1 : 0;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

std::vector<std::vector<ValueRange>> QuantizedMlp::neuron_preact_ranges() const {
  std::vector<std::vector<ValueRange>> ranges;
  if (!layers_.empty()) walk_ranges(layers_, input_bits_, &ranges);
  return ranges;
}

std::size_t QuantizedMlp::nonzero_weights() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.nonzeros();
  return n;
}

std::vector<std::size_t> QuantizedMlp::shared_multiplier_counts() const {
  std::vector<std::size_t> counts;
  counts.reserve(layers_.size());
  for (const auto& l : layers_) {
    std::set<std::pair<std::size_t, std::int64_t>> distinct;
    for (std::size_t k = 0; k < l.nonzeros(); ++k) {
      const std::int64_t mag = l.w_mag[k];
      if (is_pow2_or_zero(mag)) continue;  // wiring only
      distinct.emplace(l.w_col[k], mag);
    }
    counts.push_back(distinct.size());
  }
  return counts;
}

}  // namespace pnm

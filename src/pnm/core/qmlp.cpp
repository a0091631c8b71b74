#include "pnm/core/qmlp.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "pnm/util/bits.hpp"

namespace pnm {

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
  return q;
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
  const simd::LayerBlockFn fn = simd::layer_block_kernel(isa);
  if (fn == nullptr) {
    throw std::invalid_argument(std::string("QuantizedMlp::forward_block: no ") +
                                simd::isa_name(isa) + " kernel on this machine");
  }
  constexpr std::size_t kB = simd::kSampleBlock;
  const std::int64_t* x = xb;
  for (const auto& l : layers_) {
    const std::size_t out_f = l.out_features();
    scratch.next.resize(out_f * kB);
    simd::LayerBlockArgs args;
    args.x = x;
    args.out = scratch.next.data();
    args.bias = l.bias.data();
    args.w_val = l.w_val.data();
    args.w_mag = l.w_mag.data();
    args.w_neg = l.w_neg.data();
    args.w_col = l.w_col.data();
    args.row_offset = l.row_offset.data();
    args.out_features = out_f;
    args.acc_shift = l.acc_shift;
    args.relu = l.act == Activation::kRelu;
    fn(args);
    scratch.cur.swap(scratch.next);
    x = scratch.cur.data();
  }
  return {scratch.cur.data(), scratch.cur.size()};
}

void QuantizedMlp::predict_block_into(const std::int64_t* xb, std::size_t lanes,
                                      BlockScratch& scratch, std::size_t* preds,
                                      simd::Isa isa) const {
  constexpr std::size_t kB = simd::kSampleBlock;
  const auto out = forward_block_into(xb, scratch, isa);
  const std::size_t classes = output_size();
  for (std::size_t j = 0; j < lanes && j < kB; ++j) {
    std::size_t best = 0;
    for (std::size_t r = 1; r < classes; ++r) {
      if (out[r * kB + j] > out[best * kB + j]) best = r;
    }
    preds[j] = best;
  }
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
  BlockScratch scratch;
  std::size_t preds[kB] = {};
  std::size_t correct = 0;
  for (std::size_t b = 0; b < data.block_count(); ++b) {
    const std::size_t lanes = std::min(kB, data.size() - b * kB);
    predict_block_into(data.block(b), lanes, scratch, preds, isa);
    for (std::size_t j = 0; j < lanes; ++j) {
      if (preds[j] == data.y[b * kB + j]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

std::vector<std::vector<ValueRange>> QuantizedMlp::neuron_preact_ranges() const {
  std::vector<std::vector<ValueRange>> ranges(layers_.size());
  // Per-input ranges entering the current layer.
  std::vector<ValueRange> in_ranges(input_size());
  const std::int64_t xmax = unsigned_max(input_bits_);
  for (auto& r : in_ranges) r = ValueRange{0, xmax};

  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const auto& l = layers_[li];
    const int s = l.acc_shift;
    ranges[li].resize(l.out_features());
    std::vector<ValueRange> out_ranges(l.out_features());
    for (std::size_t r = 0; r < l.out_features(); ++r) {
      std::int64_t lo = l.bias[r] >> s;
      std::int64_t hi = l.bias[r] >> s;
      for (std::size_t k = l.row_offset[r]; k < l.row_offset[r + 1]; ++k) {
        // Truncated-magnitude term range (monotone in x, so exact).
        const std::int64_t mag = l.w_mag[k];
        const auto& in_range = in_ranges[l.w_col[k]];
        const std::int64_t t_lo = (mag * in_range.lo) >> s;
        const std::int64_t t_hi = (mag * in_range.hi) >> s;
        if (!l.w_neg[k]) {
          lo += t_lo;
          hi += t_hi;
        } else {
          lo += -t_hi;
          hi += -t_lo;
        }
      }
      ranges[li][r] = ValueRange{lo, hi};
      if (l.act == Activation::kRelu) {
        out_ranges[r] = ValueRange{std::max<std::int64_t>(0, lo), std::max<std::int64_t>(0, hi)};
      } else {
        out_ranges[r] = ranges[li][r];
      }
    }
    in_ranges = std::move(out_ranges);
  }
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

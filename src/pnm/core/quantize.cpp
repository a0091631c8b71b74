#include "pnm/core/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "pnm/nn/dense_simd.hpp"
#include "pnm/util/bits.hpp"

namespace pnm {

QuantSpec QuantSpec::uniform(std::size_t n_layers, int bits, int input_bits) {
  QuantSpec spec;
  spec.weight_bits.assign(n_layers, bits);
  spec.input_bits = input_bits;
  spec.validate(n_layers);
  return spec;
}

void QuantSpec::validate(std::size_t n_layers) const {
  if (weight_bits.size() != n_layers) {
    throw std::invalid_argument("QuantSpec: weight_bits size != layer count");
  }
  for (int b : weight_bits) {
    if (b < 2 || b > 16) throw std::invalid_argument("QuantSpec: weight bits out of [2,16]");
  }
  if (input_bits < 1 || input_bits > 16) {
    throw std::invalid_argument("QuantSpec: input bits out of [1,16]");
  }
  if (!acc_shift.empty() && acc_shift.size() != n_layers) {
    throw std::invalid_argument("QuantSpec: acc_shift size != layer count");
  }
  for (int s : acc_shift) {
    if (s < 0 || s > 12) throw std::invalid_argument("QuantSpec: acc_shift out of [0,12]");
  }
}

namespace {

/// The one QAT scale rule: the weights' largest magnitude over the largest
/// code, 2^(bits-1) - 1, and 0 for weights that are all zero.
double scale_for(double amax, int bits) {
  if (bits < 2 || bits > 16) throw std::invalid_argument("quantization_scale: bad bits");
  if (amax == 0.0) return 0.0;
  const double qmax = static_cast<double>((1 << (bits - 1)) - 1);
  return amax / qmax;
}

}  // namespace

double quantization_scale(const Matrix& w, int bits) {
  return scale_for(w.abs_max(), bits);
}

std::vector<int> quantize_codes(const Matrix& w, int bits, double scale) {
  const int qmax = (1 << (bits - 1)) - 1;
  std::vector<int> codes(w.size(), 0);
  if (scale == 0.0) return codes;
  const auto& raw = w.raw();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const auto q = static_cast<long>(std::llround(raw[i] / scale));
    codes[i] = static_cast<int>(std::clamp<long>(q, -qmax, qmax));
  }
  return codes;
}

Matrix fake_quantize(const Matrix& w, int bits) {
  Matrix out(w.rows(), w.cols());
  fake_quantize_into(w, bits, out);
  return out;
}

void fake_quantize_into(const Matrix& w, int bits, Matrix& out) {
  if (out.rows() != w.rows() || out.cols() != w.cols()) {
    out = Matrix(w.rows(), w.cols());
  }
  fake_quantize_values(w.data(), out.data(), w.size(), bits);
}

void fake_quantize_values(const double* w, double* out, std::size_t n, int bits) {
  const auto& kernels = simd::dense_kernels();
  const double scale = scale_for(kernels.abs_max(w, n), bits);
  if (scale == 0.0) {
    std::fill(out, out + n, 0.0);
    return;
  }
  // Fused quantize_codes + rescale: identical element arithmetic
  // (clamp(llround(w/scale)) * scale), no temporary code vector, through
  // the vectorized kernel's exact inline rounding instead of libm.
  const int qmax = (1 << (bits - 1)) - 1;
  kernels.fake_quantize(w, out, n, scale, static_cast<double>(qmax));
}

void fake_quantize_mlp(const Mlp& master, Mlp& view, const QuantSpec& spec) {
  spec.validate(master.layer_count());
  if (view.layer_count() != master.layer_count()) {
    throw std::invalid_argument("fake_quantize_mlp: view/master mismatch");
  }
  for (std::size_t li = 0; li < master.layer_count(); ++li) {
    fake_quantize_into(master.layer(li).weights, spec.weight_bits[li],
                       view.layer(li).weights);
    view.layer(li).bias = master.layer(li).bias;  // biases stay float during QAT
  }
}

Trainer::WeightView make_qat_view(QuantSpec spec) {
  return [spec = std::move(spec)](const Mlp& master, Mlp& view) {
    fake_quantize_mlp(master, view, spec);
  };
}

namespace {

/// The single definition of the input-code mapping: clamp to [0,1] (NaN
/// to 0), scale to [0, 2^bits - 1], round to nearest with ties away from
/// zero.  Every input-quantization entry point (per-sample and
/// whole-dataset) encodes through this, so the batched QuantizedDataset
/// path can never drift from quantize_input.  Code i lands at
/// out[i * stride]: 1 for a sample's own row, simd::kSampleBlock for its
/// lane of a blocked dataset.
///
/// The rounding is std::llround's, done inline: the scaled value lies in
/// [0, 65535], so truncation is its floor and the fraction it leaves is
/// exact; adding 1 when that fraction is at least 0.5 is llround for every
/// such value.  The serving reactor stages every request through here.
void encode_input_row(const double* x, std::size_t n, double qmax,
                      std::int64_t* out, std::size_t stride) {
  for (std::size_t i = 0; i < n; ++i) {
    const double clamped = x[i] > 0.0 ? std::min(x[i], 1.0) : 0.0;  // NaN fails `>`
    const double scaled = clamped * qmax;
    const auto whole = static_cast<std::int32_t>(scaled);
    out[i * stride] = whole + static_cast<std::int64_t>(scaled - whole >= 0.5);
  }
}

}  // namespace

std::vector<std::int64_t> quantize_input(const std::vector<double>& x, int input_bits) {
  std::vector<std::int64_t> q;
  quantize_input_into(x, input_bits, q);
  return q;
}

void quantize_input_into(const std::vector<double>& x, int input_bits,
                         std::vector<std::int64_t>& out) {
  if (input_bits < 1 || input_bits > 16) {
    throw std::invalid_argument("quantize_input: bad input bits");
  }
  const double qmax = static_cast<double>((1 << input_bits) - 1);
  out.resize(x.size());
  encode_input_row(x.data(), x.size(), qmax, out.data(), 1);
}

QuantizedDataset quantize_dataset(const Dataset& data, int input_bits) {
  if (input_bits < 1 || input_bits > 16) {
    throw std::invalid_argument("quantize_dataset: bad input bits");
  }
  data.validate();
  constexpr std::size_t kB = simd::kSampleBlock;
  QuantizedDataset q;
  q.name = data.name;
  q.input_bits = input_bits;
  q.n_features = data.n_features();
  q.n_classes = data.n_classes;
  q.y = data.y;
  q.xb.assign(q.block_count() * q.n_features * kB, 0);  // tail lanes stay zero
  const double qmax = static_cast<double>((1 << input_bits) - 1);
  for (std::size_t i = 0; i < data.size(); ++i) {
    encode_input_row(data.x[i].data(), q.n_features, qmax,
                     q.xb.data() + (i / kB) * q.n_features * kB + (i % kB), kB);
  }
  return q;
}

}  // namespace pnm

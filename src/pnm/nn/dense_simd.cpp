#include "pnm/nn/dense_simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "pnm/nn/fastmath.hpp"

namespace pnm::simd {

// Native tables, provided by the arch-specific TUs when compiled in.
#if defined(__x86_64__)
const DenseKernels& dense_kernels_avx2();
#endif
#if defined(__aarch64__)
const DenseKernels& dense_kernels_neon();
#endif

namespace {

// ---- scalar fallback ------------------------------------------------------
// These loops ARE the semantics: the vector kernels reproduce them
// lane-for-lane (see the header's determinism contract).

double dot_scalar(const double* a, const double* b, unsigned long n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  unsigned long c = 0;
  for (; c + 4 <= n; c += 4) {
    acc0 += a[c] * b[c];
    acc1 += a[c + 1] * b[c + 1];
    acc2 += a[c + 2] * b[c + 2];
    acc3 += a[c + 3] * b[c + 3];
  }
  // Tail columns continue chains 0..2 in order.
  if (c < n) acc0 += a[c] * b[c];
  if (c + 1 < n) acc1 += a[c + 1] * b[c + 1];
  if (c + 2 < n) acc2 += a[c + 2] * b[c + 2];
  return (acc0 + acc1) + (acc2 + acc3);
}

// ---- minibatch (multi-block 8-lane SoA) trainer kernels -------------------
// Each lane j is one sample; a layer buffer holds `blocks` consecutive
// blocks laid out element*8 + lane, the same blocking as the integer
// inference engine.

constexpr unsigned long kB = kDenseBlock;

void gather_scalar(const double* const* rows, unsigned long n, unsigned long cols,
                   double* out) {
  for (unsigned long i = 0; i < n; ++i) {
    double* dst = out + (i / kB) * cols * kB + i % kB;
    for (unsigned long c = 0; c < cols; ++c) dst[c * kB] = rows[i][c];
  }
  if (n % kB == 0) return;
  double* last = out + (n / kB) * cols * kB;
  for (unsigned long c = 0; c < cols; ++c) {
    for (unsigned long j = n % kB; j < kB; ++j) last[c * kB + j] = 0.0;
  }
}

void layer_fwd_scalar(const double* w, const double* bias, const double* in,
                      double* out, unsigned long rows, unsigned long cols,
                      unsigned long blocks, bool relu) {
  for (unsigned long b = 0; b < blocks; ++b) {
    const double* xb = in + b * cols * kB;
    double* ob = out + b * rows * kB;
    for (unsigned long r = 0; r < rows; ++r) {
      double acc[kB];
      for (unsigned long j = 0; j < kB; ++j) acc[j] = bias[r];
      const double* wr = w + r * cols;
      for (unsigned long c = 0; c < cols; ++c) {
        const double wc = wr[c];
        const double* xv = xb + c * kB;
        for (unsigned long j = 0; j < kB; ++j) acc[j] += wc * xv[j];
      }
      double* ov = ob + r * kB;
      for (unsigned long j = 0; j < kB; ++j) {
        ov[j] = relu ? (acc[j] > 0.0 ? acc[j] : 0.0) : acc[j];
      }
    }
  }
}

// Canonical 8-lane reduction: chains q_j = p_j + p_{j+4}, combined as
// (q0+q1)+(q2+q3) — the order the vector kernels reproduce exactly.
inline double sum8(const double* p) {
  const double q0 = p[0] + p[4];
  const double q1 = p[1] + p[5];
  const double q2 = p[2] + p[6];
  const double q3 = p[3] + p[7];
  return (q0 + q1) + (q2 + q3);
}

// One bias gradient and one weight gradient in the documented order: each
// block's sum8, summed from +0.0 in block order, then scaled.  Both
// gradient kernels store exactly these.
double bias_grad(const double* delta, unsigned long r, unsigned long rows,
                 unsigned long blocks, double s) {
  double g = 0.0;
  for (unsigned long b = 0; b < blocks; ++b) g += sum8(delta + (b * rows + r) * kB);
  return g * s;
}

double weight_grad(const double* delta, const double* in, unsigned long r,
                   unsigned long c, unsigned long rows, unsigned long cols,
                   unsigned long blocks, double s) {
  double acc = 0.0;
  for (unsigned long b = 0; b < blocks; ++b) {
    const double* dv = delta + (b * rows + r) * kB;
    const double* xv = in + (b * cols + c) * kB;
    double p[kB];
    for (unsigned long j = 0; j < kB; ++j) p[j] = dv[j] * xv[j];
    acc += sum8(p);
  }
  return acc * s;
}

void layer_grad_scalar(const double* delta, const double* in, double* gw,
                       double* gb, unsigned long rows, unsigned long cols,
                       unsigned long blocks, double s) {
  for (unsigned long r = 0; r < rows; ++r) {
    gb[r] = bias_grad(delta, r, rows, blocks, s);
    for (unsigned long c = 0; c < cols; ++c) {
      gw[r * cols + c] = weight_grad(delta, in, r, c, rows, cols, blocks, s);
    }
  }
}

void layer_grad_live_scalar(const double* delta, const double* in, double* gw,
                            double* gb, unsigned long rows, unsigned long cols,
                            unsigned long blocks, double s,
                            const unsigned long* row_begin, const unsigned long* col) {
  for (unsigned long r = 0; r < rows; ++r) {
    gb[r] = bias_grad(delta, r, rows, blocks, s);
    for (unsigned long k = row_begin[r]; k < row_begin[r + 1]; ++k) {
      gw[k] = weight_grad(delta, in, r, col[k], rows, cols, blocks, s);
    }
  }
}

void layer_back_scalar(const double* w, const double* delta,
                       const double* relu_post, double* prev, unsigned long rows,
                       unsigned long cols, unsigned long blocks) {
  for (unsigned long b = 0; b < blocks; ++b) {
    const double* db = delta + b * rows * kB;
    double* pb = prev + b * cols * kB;
    for (unsigned long c = 0; c < cols; ++c) {
      double acc[kB];
      for (unsigned long j = 0; j < kB; ++j) acc[j] = 0.0;
      for (unsigned long r = 0; r < rows; ++r) {
        const double wc = w[r * cols + c];
        const double* dv = db + r * kB;
        for (unsigned long j = 0; j < kB; ++j) acc[j] += wc * dv[j];
      }
      double* pv = pb + c * kB;
      const double* post = relu_post != nullptr ? relu_post + b * cols * kB + c * kB : nullptr;
      for (unsigned long j = 0; j < kB; ++j) {
        pv[j] = post != nullptr && post[j] <= 0.0 ? 0.0 : acc[j];
      }
    }
  }
}

void softmax_xent_scalar(const double* logits, const unsigned long* labels,
                         unsigned long n, unsigned long rows, double* delta) {
  for (unsigned long b = 0; b * kB < n; ++b) {
    const double* z = logits + b * rows * kB;
    double* d = delta + b * rows * kB;
    const unsigned long lanes = n - b * kB < kB ? n - b * kB : kB;
    double m[kB];
    for (unsigned long j = 0; j < kB; ++j) m[j] = z[j];
    for (unsigned long r = 1; r < rows; ++r) {
      for (unsigned long j = 0; j < kB; ++j) {
        if (m[j] < z[r * kB + j]) m[j] = z[r * kB + j];
      }
    }
    for (unsigned long r = 0; r < rows; ++r) {
      for (unsigned long j = 0; j < kB; ++j) d[r * kB + j] = z[r * kB + j] - m[j];
    }
    fast_exp(d, d, rows * kB);
    double denom[kB];
    for (unsigned long j = 0; j < kB; ++j) denom[j] = 0.0;
    for (unsigned long r = 0; r < rows; ++r) {
      for (unsigned long j = 0; j < kB; ++j) denom[j] += d[r * kB + j];
    }
    double inv[kB];
    for (unsigned long j = 0; j < kB; ++j) inv[j] = 1.0 / denom[j];
    for (unsigned long r = 0; r < rows; ++r) {
      for (unsigned long j = 0; j < kB; ++j) d[r * kB + j] *= inv[j];
    }
    for (unsigned long j = 0; j < lanes; ++j) d[labels[b * kB + j] * kB + j] -= 1.0;
    for (unsigned long j = lanes; j < kB; ++j) {
      for (unsigned long r = 0; r < rows; ++r) d[r * kB + j] = 0.0;
    }
  }
}

void fake_quantize_scalar(const double* src, double* dst, unsigned long n,
                          double scale, double qmax) {
  for (unsigned long i = 0; i < n; ++i) {
    const double x = src[i] / scale;
    // trunc(x): every |x| >= 2^52 is already an integer (and NaN stays
    // NaN), so the integer conversion only sees values it can represent.
    double q = std::abs(x) < 0x1p52 ? static_cast<double>(static_cast<long long>(x)) : x;
    const double frac = x - q;  // exact
    if (frac >= 0.5) q += 1.0;
    if (frac <= -0.5) q -= 1.0;
    q = q < -qmax ? -qmax : q;
    q = q > qmax ? qmax : q;
    dst[i] = (q + 0.0) * scale;
  }
}

double abs_max_scalar(const double* x, unsigned long n) {
  double m = 0.0;
  for (unsigned long i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  return m;
}

void adam_scalar(double* w, const double* g, double* m, double* v,
                 unsigned long n, const AdamStep& step) {
  for (unsigned long i = 0; i < n; ++i) {
    m[i] = step.beta1 * m[i] + (1.0 - step.beta1) * g[i];
    v[i] = step.beta2 * v[i] + (1.0 - step.beta2) * (g[i] * g[i]);
    const double mhat = m[i] / step.bias_corr1;
    const double vhat = v[i] / step.bias_corr2;
    w[i] -= step.lr * mhat / (std::sqrt(vhat) + step.eps);
  }
}

constexpr DenseKernels kScalarKernels = {
    .dot = dot_scalar,
    .gather = gather_scalar,
    .layer_fwd = layer_fwd_scalar,
    .layer_grad = layer_grad_scalar,
    .layer_grad_live = layer_grad_live_scalar,
    .layer_back = layer_back_scalar,
    .softmax_xent = softmax_xent_scalar,
    .fake_quantize = fake_quantize_scalar,
    .abs_max = abs_max_scalar,
    .adam = adam_scalar};

}  // namespace

const DenseKernels* dense_kernels_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &kScalarKernels;
    case Isa::kAvx2:
#if defined(__x86_64__)
      return isa_available(Isa::kAvx2) ? &dense_kernels_avx2() : nullptr;
#else
      return nullptr;
#endif
    case Isa::kNeon:
#if defined(__aarch64__)
      return &dense_kernels_neon();
#else
      return nullptr;
#endif
  }
  return nullptr;
}

namespace {
std::atomic<const DenseKernels*> g_forced_table{nullptr};
}  // namespace

const DenseKernels& dense_kernels() {
  const DenseKernels* forced = g_forced_table.load(std::memory_order_relaxed);
  if (forced != nullptr) return *forced;
  static const DenseKernels* table = [] {
    const DenseKernels* t = dense_kernels_for(active_isa());
    return t != nullptr ? t : &kScalarKernels;
  }();
  return *table;
}

void force_dense_kernels(Isa isa) {
  const DenseKernels* t = dense_kernels_for(isa);
  g_forced_table.store(t != nullptr ? t : &kScalarKernels,
                       std::memory_order_relaxed);
}

void reset_dense_kernels() {
  g_forced_table.store(nullptr, std::memory_order_relaxed);
}

}  // namespace pnm::simd

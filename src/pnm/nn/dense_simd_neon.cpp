/// NEON (aarch64) table for nn/dense_simd.hpp.  float64x2 is baseline on
/// aarch64, so this TU needs no extra flags beyond -ffp-contract=off
/// (aarch64 GCC would otherwise contract mul+add into fmadd, which rounds
/// once and would split results from the scalar table).  Every kernel
/// reproduces the scalar loop lane-for-lane; vsqrtq_f64/vdivq_f64 are
/// IEEE correctly rounded.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cmath>

#include "pnm/nn/dense_simd.hpp"

namespace pnm::simd {

namespace {

double dot_neon(const double* a, const double* b, unsigned long n) {
  // acc01 holds chains 0,1; acc23 holds chains 2,3.
  float64x2_t acc01 = vdupq_n_f64(0.0);
  float64x2_t acc23 = vdupq_n_f64(0.0);
  unsigned long c = 0;
  for (; c + 4 <= n; c += 4) {
    acc01 = vaddq_f64(acc01, vmulq_f64(vld1q_f64(a + c), vld1q_f64(b + c)));
    acc23 = vaddq_f64(acc23, vmulq_f64(vld1q_f64(a + c + 2), vld1q_f64(b + c + 2)));
  }
  double chains[4] = {vgetq_lane_f64(acc01, 0), vgetq_lane_f64(acc01, 1),
                      vgetq_lane_f64(acc23, 0), vgetq_lane_f64(acc23, 1)};
  if (c < n) chains[0] += a[c] * b[c];
  if (c + 1 < n) chains[1] += a[c + 1] * b[c + 1];
  if (c + 2 < n) chains[2] += a[c + 2] * b[c + 2];
  return (chains[0] + chains[1]) + (chains[2] + chains[3]);
}

void adam_neon(double* w, const double* g, double* m, double* v,
               unsigned long n, const AdamStep& step) {
  const float64x2_t b1 = vdupq_n_f64(step.beta1);
  const float64x2_t b2 = vdupq_n_f64(step.beta2);
  const float64x2_t one_m_b1 = vdupq_n_f64(1.0 - step.beta1);
  const float64x2_t one_m_b2 = vdupq_n_f64(1.0 - step.beta2);
  const float64x2_t bc1 = vdupq_n_f64(step.bias_corr1);
  const float64x2_t bc2 = vdupq_n_f64(step.bias_corr2);
  const float64x2_t lr = vdupq_n_f64(step.lr);
  const float64x2_t eps = vdupq_n_f64(step.eps);
  unsigned long i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t wi = vld1q_f64(w + i);
    const float64x2_t gi = vld1q_f64(g + i);
    const float64x2_t mi =
        vaddq_f64(vmulq_f64(b1, vld1q_f64(m + i)), vmulq_f64(one_m_b1, gi));
    const float64x2_t vi = vaddq_f64(vmulq_f64(b2, vld1q_f64(v + i)),
                                     vmulq_f64(one_m_b2, vmulq_f64(gi, gi)));
    vst1q_f64(m + i, mi);
    vst1q_f64(v + i, vi);
    const float64x2_t mhat = vdivq_f64(mi, bc1);
    const float64x2_t vhat = vdivq_f64(vi, bc2);
    const float64x2_t denom = vaddq_f64(vsqrtq_f64(vhat), eps);
    vst1q_f64(w + i, vsubq_f64(wi, vdivq_f64(vmulq_f64(lr, mhat), denom)));
  }
  for (; i < n; ++i) {
    m[i] = step.beta1 * m[i] + (1.0 - step.beta1) * g[i];
    v[i] = step.beta2 * v[i] + (1.0 - step.beta2) * (g[i] * g[i]);
    const double mhat = m[i] / step.bias_corr1;
    const double vhat = v[i] / step.bias_corr2;
    w[i] -= step.lr * mhat / (std::sqrt(vhat) + step.eps);
  }
}

}  // namespace

const DenseKernels& dense_kernels_neon() {
  // The gather, minibatch layer, softmax, fake-quantize and abs_max slots
  // reuse the scalar functions: bit-identical by construction, and no
  // aarch64 build has verified intrinsics for them yet.
  static const DenseKernels kTable = [] {
    DenseKernels t = *dense_kernels_for(Isa::kScalar);
    t.dot = dot_neon;
    t.adam = adam_neon;
    return t;
  }();
  return kTable;
}

}  // namespace pnm::simd

#endif  // defined(__aarch64__)

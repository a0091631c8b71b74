/// AVX2 table for nn/dense_simd.hpp.  This TU alone builds with -mavx2
/// (and -ffp-contract=off); runtime dispatch keeps it unreached on CPUs
/// without AVX2.  Every kernel reproduces the scalar loop lane-for-lane:
/// no FMA (the TU does not enable it, and vmulpd+vaddpd round like the
/// scalar mul+add), and vsqrtpd/vdivpd are IEEE correctly rounded, so
/// results are bit-identical to the scalar table.

#if defined(__x86_64__)

#include <algorithm>
#include <cmath>
#include <immintrin.h>
#include <iterator>

#include "pnm/nn/dense_simd.hpp"
#include "pnm/nn/fastmath.hpp"

namespace pnm::simd {

namespace {

double dot_avx2(const double* a, const double* b, unsigned long n) {
  __m256d acc = _mm256_setzero_pd();
  unsigned long c = 0;
  for (; c + 4 <= n; c += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + c), _mm256_loadu_pd(b + c)));
  }
  // Lane j held chain j; the tail continues chains 0..2 exactly like the
  // scalar fallback, then the canonical (c0+c1)+(c2+c3) combine.
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  if (c < n) lanes[0] += a[c] * b[c];
  if (c + 1 < n) lanes[1] += a[c + 1] * b[c + 1];
  if (c + 2 < n) lanes[2] += a[c + 2] * b[c + 2];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

// ---- minibatch (multi-block 8-lane SoA) trainer kernels -------------------
// 8 doubles = two __m256d; every lane is an independent mul+add chain, so
// these are bit-identical to the scalar loops.  The kernels keep several
// rows or columns in flight at once so the add latency of one chain hides
// behind the others; that changes which chains run together, never the
// order of any one chain.

constexpr unsigned long kB = kDenseBlock;

void gather_avx2(const double* const* rows, unsigned long n, unsigned long cols,
                 double* out) {
  unsigned long i = 0;
  // Four samples at a time fill lanes i%8 .. i%8+3 of one block: a 4x4
  // transpose turns four features of four rows into one vector per feature.
  for (; i + 4 <= n; i += 4) {
    double* dst = out + (i / kB) * cols * kB + i % kB;
    const double* r0 = rows[i];
    const double* r1 = rows[i + 1];
    const double* r2 = rows[i + 2];
    const double* r3 = rows[i + 3];
    unsigned long c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m256d a = _mm256_loadu_pd(r0 + c);  // a0 a1 a2 a3
      const __m256d b = _mm256_loadu_pd(r1 + c);
      const __m256d x = _mm256_loadu_pd(r2 + c);
      const __m256d y = _mm256_loadu_pd(r3 + c);
      const __m256d t0 = _mm256_unpacklo_pd(a, b);  // a0 b0 a2 b2
      const __m256d t1 = _mm256_unpackhi_pd(a, b);  // a1 b1 a3 b3
      const __m256d t2 = _mm256_unpacklo_pd(x, y);  // x0 y0 x2 y2
      const __m256d t3 = _mm256_unpackhi_pd(x, y);  // x1 y1 x3 y3
      _mm256_storeu_pd(dst + c * kB, _mm256_permute2f128_pd(t0, t2, 0x20));
      _mm256_storeu_pd(dst + (c + 1) * kB, _mm256_permute2f128_pd(t1, t3, 0x20));
      _mm256_storeu_pd(dst + (c + 2) * kB, _mm256_permute2f128_pd(t0, t2, 0x31));
      _mm256_storeu_pd(dst + (c + 3) * kB, _mm256_permute2f128_pd(t1, t3, 0x31));
    }
    for (; c < cols; ++c) {
      dst[c * kB] = r0[c];
      dst[c * kB + 1] = r1[c];
      dst[c * kB + 2] = r2[c];
      dst[c * kB + 3] = r3[c];
    }
  }
  for (; i < n; ++i) {
    double* dst = out + (i / kB) * cols * kB + i % kB;
    for (unsigned long c = 0; c < cols; ++c) dst[c * kB] = rows[i][c];
  }
  // Only the last block's padding lanes are cleared; every other lane was
  // just written.
  if (n % kB == 0) return;
  double* last = out + (n / kB) * cols * kB;
  for (unsigned long c = 0; c < cols; ++c) {
    for (unsigned long j = n % kB; j < kB; ++j) last[c * kB + j] = 0.0;
  }
}

/// R consecutive output rows of one block: 2R independent chains.
template <unsigned long R>
inline void fwd_rows(const double* w, const double* bias, const double* xb,
                     double* ob, unsigned long cols, bool relu) {
  __m256d acc[2 * R];
  for (unsigned long k = 0; k < R; ++k) {
    acc[2 * k] = _mm256_set1_pd(bias[k]);
    acc[2 * k + 1] = acc[2 * k];
  }
  for (unsigned long c = 0; c < cols; ++c) {
    const __m256d x_lo = _mm256_loadu_pd(xb + c * kB);
    const __m256d x_hi = _mm256_loadu_pd(xb + c * kB + 4);
    for (unsigned long k = 0; k < R; ++k) {
      const __m256d wc = _mm256_set1_pd(w[k * cols + c]);
      acc[2 * k] = _mm256_add_pd(acc[2 * k], _mm256_mul_pd(wc, x_lo));
      acc[2 * k + 1] = _mm256_add_pd(acc[2 * k + 1], _mm256_mul_pd(wc, x_hi));
    }
  }
  // max(x, 0) returns its second operand unless x > 0 — exactly the
  // scalar (x > 0 ? x : 0.0), NaN and -0.0 included.
  const __m256d zero = _mm256_setzero_pd();
  for (unsigned long k = 0; k < 2 * R; ++k) {
    _mm256_storeu_pd(ob + k * 4, relu ? _mm256_max_pd(acc[k], zero) : acc[k]);
  }
}

void layer_fwd_avx2(const double* w, const double* bias, const double* in,
                    double* out, unsigned long rows, unsigned long cols,
                    unsigned long blocks, bool relu) {
  for (unsigned long b = 0; b < blocks; ++b) {
    const double* xb = in + b * cols * kB;
    double* ob = out + b * rows * kB;
    unsigned long r = 0;
    for (; r + 4 <= rows; r += 4) {
      fwd_rows<4>(w + r * cols, bias + r, xb, ob + r * kB, cols, relu);
    }
    for (; r + 2 <= rows; r += 2) {
      fwd_rows<2>(w + r * cols, bias + r, xb, ob + r * kB, cols, relu);
    }
    for (; r < rows; ++r) {
      fwd_rows<1>(w + r * cols, bias + r, xb, ob + r * kB, cols, relu);
    }
  }
}

// Canonical 8-lane reduction (see dense_simd.hpp): lanewise lo+hi gives the
// chains q_j = p_j + p_{j+4}; unpack pairs them as (q0,q2)/(q1,q3), one add
// gives (q0+q1, q2+q3), and the final scalar add is the (q0+q1)+(q2+q3)
// combine — the exact scalar tree.
inline double sum8_avx2(__m256d lo, __m256d hi) {
  const __m256d q = _mm256_add_pd(lo, hi);
  const __m128d q01 = _mm256_castpd256_pd128(q);
  const __m128d q23 = _mm256_extractf128_pd(q, 1);
  const __m128d s =
      _mm_add_pd(_mm_unpacklo_pd(q01, q23), _mm_unpackhi_pd(q01, q23));
  return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
}

/// The canonical sum8 of four columns at once.  q_c = lo_c + hi_c holds
/// column c's chains (q0..q3); hadd pairs them into (q0+q1, q2+q3) per
/// column, interleaved two columns per vector, and permute2f128 gathers
/// all four (q0+q1) halves and all four (q2+q3) halves, whose sum is the
/// scalar tree for each column.
inline __m256d sum8x4_avx2(__m256d q0, __m256d q1, __m256d q2, __m256d q3) {
  const __m256d h01 = _mm256_hadd_pd(q0, q1);
  const __m256d h23 = _mm256_hadd_pd(q2, q3);
  return _mm256_add_pd(_mm256_permute2f128_pd(h01, h23, 0x20),
                       _mm256_permute2f128_pd(h01, h23, 0x31));
}

void layer_grad_avx2(const double* delta, const double* in, double* gw,
                     double* gb, unsigned long rows, unsigned long cols,
                     unsigned long blocks, double s) {
  const unsigned long dstride = rows * kB;
  const unsigned long xstride = cols * kB;
  const __m256d sv = _mm256_set1_pd(s);
  for (unsigned long r = 0; r < rows; ++r) {
    const double* dr = delta + r * kB;
    double g = 0.0;
    for (unsigned long b = 0; b < blocks; ++b) {
      const double* dv = dr + b * dstride;
      g += sum8_avx2(_mm256_loadu_pd(dv), _mm256_loadu_pd(dv + 4));
    }
    gb[r] = g * s;
    double* gwr = gw + r * cols;
    unsigned long c = 0;
    for (; c + 4 <= cols; c += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (unsigned long b = 0; b < blocks; ++b) {
        const double* dv = dr + b * dstride;
        const __m256d d_lo = _mm256_loadu_pd(dv);
        const __m256d d_hi = _mm256_loadu_pd(dv + 4);
        const double* xv = in + b * xstride + c * kB;
        __m256d q[4];
        for (unsigned long k = 0; k < 4; ++k) {
          q[k] = _mm256_add_pd(_mm256_mul_pd(d_lo, _mm256_loadu_pd(xv + k * kB)),
                               _mm256_mul_pd(d_hi, _mm256_loadu_pd(xv + k * kB + 4)));
        }
        acc = _mm256_add_pd(acc, sum8x4_avx2(q[0], q[1], q[2], q[3]));
      }
      _mm256_storeu_pd(gwr + c, _mm256_mul_pd(acc, sv));
    }
    for (; c < cols; ++c) {
      double acc = 0.0;
      for (unsigned long b = 0; b < blocks; ++b) {
        const double* dv = dr + b * dstride;
        const double* xv = in + b * xstride + c * kB;
        acc += sum8_avx2(_mm256_mul_pd(_mm256_loadu_pd(dv), _mm256_loadu_pd(xv)),
                         _mm256_mul_pd(_mm256_loadu_pd(dv + 4), _mm256_loadu_pd(xv + 4)));
      }
      gwr[c] = acc * s;
    }
  }
}

/// The canonical sum8 of two columns at once: hadd pairs their chains into
/// (q0+q1, q2+q3) per column, interleaved, and adding the two 128-bit
/// halves is the scalar tree's final add for each.
inline __m128d sum8x2_avx2(__m256d q0, __m256d q1) {
  const __m256d h = _mm256_hadd_pd(q0, q1);
  return _mm_add_pd(_mm256_castpd256_pd128(h), _mm256_extractf128_pd(h, 1));
}

/// The chains q_j = p_j + p_{j+4} of one block's products for the column
/// whose 8 lanes start at x.
inline __m256d chains(__m256d d_lo, __m256d d_hi, const double* x) {
  return _mm256_add_pd(_mm256_mul_pd(d_lo, _mm256_loadu_pd(x)),
                       _mm256_mul_pd(d_hi, _mm256_loadu_pd(x + 4)));
}

/// layer_grad_avx2 over arbitrary live columns: each row's live weights
/// go four at a time through sum8x4, then two at a time through sum8x2,
/// then one through sum8_avx2 — the same per-column tree, and the same
/// block-order sum from +0.0 and final scaling, as layer_grad_avx2.
void layer_grad_live_avx2(const double* delta, const double* in, double* gw,
                          double* gb, unsigned long rows, unsigned long cols,
                          unsigned long blocks, double s,
                          const unsigned long* row_begin, const unsigned long* col) {
  const unsigned long dstride = rows * kB;
  const unsigned long xstride = cols * kB;
  const __m256d sv = _mm256_set1_pd(s);
  for (unsigned long r = 0; r < rows; ++r) {
    const double* dr = delta + r * kB;
    double g = 0.0;
    for (unsigned long b = 0; b < blocks; ++b) {
      const double* dv = dr + b * dstride;
      g += sum8_avx2(_mm256_loadu_pd(dv), _mm256_loadu_pd(dv + 4));
    }
    gb[r] = g * s;
    unsigned long k = row_begin[r];
    const unsigned long end = row_begin[r + 1];
    for (; k + 4 <= end; k += 4) {
      const double* x0 = in + col[k] * kB;
      const double* x1 = in + col[k + 1] * kB;
      const double* x2 = in + col[k + 2] * kB;
      const double* x3 = in + col[k + 3] * kB;
      __m256d acc = _mm256_setzero_pd();
      for (unsigned long b = 0; b < blocks; ++b) {
        const double* dv = dr + b * dstride;
        const __m256d d_lo = _mm256_loadu_pd(dv);
        const __m256d d_hi = _mm256_loadu_pd(dv + 4);
        const unsigned long at = b * xstride;
        acc = _mm256_add_pd(acc, sum8x4_avx2(chains(d_lo, d_hi, x0 + at),
                                             chains(d_lo, d_hi, x1 + at),
                                             chains(d_lo, d_hi, x2 + at),
                                             chains(d_lo, d_hi, x3 + at)));
      }
      _mm256_storeu_pd(gw + k, _mm256_mul_pd(acc, sv));
    }
    if (k + 2 <= end) {
      const double* x0 = in + col[k] * kB;
      const double* x1 = in + col[k + 1] * kB;
      __m128d acc = _mm_setzero_pd();
      for (unsigned long b = 0; b < blocks; ++b) {
        const double* dv = dr + b * dstride;
        const __m256d d_lo = _mm256_loadu_pd(dv);
        const __m256d d_hi = _mm256_loadu_pd(dv + 4);
        const unsigned long at = b * xstride;
        acc = _mm_add_pd(acc, sum8x2_avx2(chains(d_lo, d_hi, x0 + at),
                                          chains(d_lo, d_hi, x1 + at)));
      }
      _mm_storeu_pd(gw + k, _mm_mul_pd(acc, _mm256_castpd256_pd128(sv)));
      k += 2;
    }
    if (k < end) {
      const double* x0 = in + col[k] * kB;
      double acc = 0.0;
      for (unsigned long b = 0; b < blocks; ++b) {
        const double* dv = dr + b * dstride;
        const double* xv = x0 + b * xstride;
        acc += sum8_avx2(_mm256_mul_pd(_mm256_loadu_pd(dv), _mm256_loadu_pd(xv)),
                         _mm256_mul_pd(_mm256_loadu_pd(dv + 4), _mm256_loadu_pd(xv + 4)));
      }
      gw[k] = acc * s;
    }
  }
}

/// C consecutive columns of one block's backward pass: 2C independent
/// chains, each summed over r ascending from +0.0.
template <unsigned long C>
inline void back_cols(const double* w, const double* db, const double* post,
                      double* pb, unsigned long rows, unsigned long cols) {
  __m256d acc[2 * C];
  for (unsigned long k = 0; k < 2 * C; ++k) acc[k] = _mm256_setzero_pd();
  for (unsigned long r = 0; r < rows; ++r) {
    const __m256d d_lo = _mm256_loadu_pd(db + r * kB);
    const __m256d d_hi = _mm256_loadu_pd(db + r * kB + 4);
    for (unsigned long k = 0; k < C; ++k) {
      const __m256d wc = _mm256_set1_pd(w[r * cols + k]);
      acc[2 * k] = _mm256_add_pd(acc[2 * k], _mm256_mul_pd(wc, d_lo));
      acc[2 * k + 1] = _mm256_add_pd(acc[2 * k + 1], _mm256_mul_pd(wc, d_hi));
    }
  }
  const __m256d zero = _mm256_setzero_pd();
  for (unsigned long k = 0; k < 2 * C; ++k) {
    __m256d v = acc[k];
    if (post != nullptr) {
      // ReLU gradient: post <= 0 clears the lane to +0.0 (NaN compares
      // false and keeps it, like the scalar test).
      v = _mm256_andnot_pd(_mm256_cmp_pd(_mm256_loadu_pd(post + k * 4), zero, _CMP_LE_OQ), v);
    }
    _mm256_storeu_pd(pb + k * 4, v);
  }
}

void layer_back_avx2(const double* w, const double* delta,
                     const double* relu_post, double* prev, unsigned long rows,
                     unsigned long cols, unsigned long blocks) {
  for (unsigned long b = 0; b < blocks; ++b) {
    const double* db = delta + b * rows * kB;
    double* pb = prev + b * cols * kB;
    const double* post = relu_post != nullptr ? relu_post + b * cols * kB : nullptr;
    unsigned long c = 0;
    for (; c + 4 <= cols; c += 4) {
      back_cols<4>(w + c, db, post != nullptr ? post + c * kB : nullptr, pb + c * kB,
                   rows, cols);
    }
    for (; c < cols; ++c) {
      back_cols<1>(w + c, db, post != nullptr ? post + c * kB : nullptr, pb + c * kB,
                   rows, cols);
    }
  }
}

/// e = fast_exp(z - m) (nn/fastmath.cpp) for R consecutive rows of one
/// block, stored to d and added to the running denominators in row order.
/// Operation for operation the scalar fast_exp: the same clamps, the same
/// k = floor(x*log2e + 0.5) (vroundpd floors exactly, as the scalar
/// round-and-fix-up does), the same reduction and polynomial, and 2^k from
/// the same exponent-magic bit pattern.  Each polynomial step runs across
/// all 2R vectors before the next, so the 2R dependent chains overlap
/// instead of each waiting out the one before it.
template <unsigned long R>
inline void exp_rows(const double* z, __m256d m_lo, __m256d m_hi, double* d,
                     __m256d& den_lo, __m256d& den_hi) {
  using namespace fastexp;
  constexpr unsigned long V = 2 * R;  // vector 2k: row k's lanes 0..3; 2k+1: lanes 4..7
  const __m256d ovf = _mm256_set1_pd(kFastExpOverflow);
  const __m256d unf = _mm256_set1_pd(kFastExpUnderflow);
  __m256d x[V];
  __m256d kd[V];
  __m256d r[V];
  __m256d p[V];
  for (unsigned long k = 0; k < V; ++k) {
    x[k] = _mm256_sub_pd(_mm256_loadu_pd(z + k * 4), k % 2 == 0 ? m_lo : m_hi);
    const __m256d hi = _mm256_blendv_pd(x[k], ovf, _mm256_cmp_pd(x[k], ovf, _CMP_GT_OQ));
    const __m256d lo = _mm256_blendv_pd(hi, unf, _mm256_cmp_pd(hi, unf, _CMP_LT_OQ));
    const __m256d t =
        _mm256_add_pd(_mm256_mul_pd(lo, _mm256_set1_pd(kLog2E)), _mm256_set1_pd(0.5));
    kd[k] = _mm256_round_pd(t, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    r[k] = _mm256_sub_pd(_mm256_sub_pd(lo, _mm256_mul_pd(kd[k], _mm256_set1_pd(kLn2Hi))),
                         _mm256_mul_pd(kd[k], _mm256_set1_pd(kLn2Lo)));
    p[k] = _mm256_set1_pd(kPoly[0]);
  }
  for (std::size_t i = 1; i < std::size(kPoly); ++i) {
    const __m256d c = _mm256_set1_pd(kPoly[i]);
    for (unsigned long k = 0; k < V; ++k) p[k] = _mm256_add_pd(_mm256_mul_pd(p[k], r[k]), c);
  }
  for (unsigned long k = 0; k < V; ++k) {
    const __m256d scale = _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_castpd_si256(_mm256_add_pd(kd[k], _mm256_set1_pd(kExponentMagic))), 52));
    const __m256d e = _mm256_blendv_pd(_mm256_mul_pd(p[k], scale), _mm256_setzero_pd(),
                                       _mm256_cmp_pd(x[k], unf, _CMP_LT_OQ));
    _mm256_storeu_pd(d + k * 4, e);
    if (k % 2 == 0) {
      den_lo = _mm256_add_pd(den_lo, e);
    } else {
      den_hi = _mm256_add_pd(den_hi, e);
    }
  }
}

void softmax_xent_avx2(const double* logits, const unsigned long* labels,
                       unsigned long n, unsigned long rows, double* delta) {
  for (unsigned long b = 0; b * kB < n; ++b) {
    const double* z = logits + b * rows * kB;
    double* d = delta + b * rows * kB;
    const unsigned long lanes = n - b * kB < kB ? n - b * kB : kB;
    // std::max_element's choice: replace only when strictly greater.
    __m256d m_lo = _mm256_loadu_pd(z);
    __m256d m_hi = _mm256_loadu_pd(z + 4);
    for (unsigned long r = 1; r < rows; ++r) {
      const __m256d z_lo = _mm256_loadu_pd(z + r * kB);
      const __m256d z_hi = _mm256_loadu_pd(z + r * kB + 4);
      m_lo = _mm256_blendv_pd(m_lo, z_lo, _mm256_cmp_pd(m_lo, z_lo, _CMP_LT_OQ));
      m_hi = _mm256_blendv_pd(m_hi, z_hi, _mm256_cmp_pd(m_hi, z_hi, _CMP_LT_OQ));
    }
    __m256d den_lo = _mm256_setzero_pd();
    __m256d den_hi = _mm256_setzero_pd();
    unsigned long r = 0;
    for (; r + 4 <= rows; r += 4) exp_rows<4>(z + r * kB, m_lo, m_hi, d + r * kB, den_lo, den_hi);
    for (; r + 2 <= rows; r += 2) exp_rows<2>(z + r * kB, m_lo, m_hi, d + r * kB, den_lo, den_hi);
    for (; r < rows; ++r) exp_rows<1>(z + r * kB, m_lo, m_hi, d + r * kB, den_lo, den_hi);
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d inv_lo = _mm256_div_pd(one, den_lo);
    const __m256d inv_hi = _mm256_div_pd(one, den_hi);
    for (unsigned long r = 0; r < rows; ++r) {
      _mm256_storeu_pd(d + r * kB, _mm256_mul_pd(_mm256_loadu_pd(d + r * kB), inv_lo));
      _mm256_storeu_pd(d + r * kB + 4, _mm256_mul_pd(_mm256_loadu_pd(d + r * kB + 4), inv_hi));
    }
    for (unsigned long j = 0; j < lanes; ++j) d[labels[b * kB + j] * kB + j] -= 1.0;
    for (unsigned long j = lanes; j < kB; ++j) {
      for (unsigned long r = 0; r < rows; ++r) d[r * kB + j] = 0.0;
    }
  }
}

/// The scalar fake-quantizer on four lanes: vroundpd truncates exactly
/// (a -0.0 result is harmless: the fix-ups and the final +0.0 see the same
/// values as the scalar integer truncation's +0.0).
inline __m256d fake_quantize4(__m256d w, __m256d scale, __m256d qmax) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg_qmax = _mm256_sub_pd(_mm256_setzero_pd(), qmax);
  const __m256d x = _mm256_div_pd(w, scale);
  __m256d q = _mm256_round_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d frac = _mm256_sub_pd(x, q);
  q = _mm256_add_pd(q, _mm256_and_pd(_mm256_cmp_pd(frac, _mm256_set1_pd(0.5), _CMP_GE_OQ), one));
  q = _mm256_sub_pd(q, _mm256_and_pd(_mm256_cmp_pd(frac, _mm256_set1_pd(-0.5), _CMP_LE_OQ), one));
  q = _mm256_blendv_pd(q, neg_qmax, _mm256_cmp_pd(q, neg_qmax, _CMP_LT_OQ));
  q = _mm256_blendv_pd(q, qmax, _mm256_cmp_pd(q, qmax, _CMP_GT_OQ));
  return _mm256_mul_pd(_mm256_add_pd(q, _mm256_setzero_pd()), scale);
}

void fake_quantize_avx2(const double* src, double* dst, unsigned long n,
                        double scale, double qmax) {
  const __m256d sv = _mm256_set1_pd(scale);
  const __m256d qv = _mm256_set1_pd(qmax);
  unsigned long i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(dst + i, fake_quantize4(_mm256_loadu_pd(src + i), sv, qv));
  }
  if (i < n) {  // the tail, zero-padded to one vector
    double lanes[4] = {0.0, 0.0, 0.0, 0.0};
    for (unsigned long k = 0; i + k < n; ++k) lanes[k] = src[i + k];
    _mm256_storeu_pd(lanes, fake_quantize4(_mm256_loadu_pd(lanes), sv, qv));
    for (unsigned long k = 0; i + k < n; ++k) dst[i + k] = lanes[k];
  }
}

double abs_max_avx2(const double* x, unsigned long n) {
  // andnot clears the sign bit (|x|, NaN stays NaN), and max_pd(a, m)
  // returns m unless a > m, so a NaN is skipped as std::max(m, a) skips it.
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d m[4] = {_mm256_setzero_pd(), _mm256_setzero_pd(), _mm256_setzero_pd(),
                  _mm256_setzero_pd()};
  unsigned long i = 0;
  for (; i + 16 <= n; i += 16) {
    for (unsigned long k = 0; k < 4; ++k) {
      m[k] = _mm256_max_pd(_mm256_andnot_pd(sign, _mm256_loadu_pd(x + i + 4 * k)), m[k]);
    }
  }
  for (; i + 4 <= n; i += 4) {
    m[0] = _mm256_max_pd(_mm256_andnot_pd(sign, _mm256_loadu_pd(x + i)), m[0]);
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, _mm256_max_pd(_mm256_max_pd(m[0], m[1]), _mm256_max_pd(m[2], m[3])));
  double r = 0.0;
  for (double v : lanes) r = std::max(r, v);
  for (; i < n; ++i) r = std::max(r, std::fabs(x[i]));
  return r;
}

void adam_avx2(double* w, const double* g, double* m, double* v,
               unsigned long n, const AdamStep& step) {
  const __m256d b1 = _mm256_set1_pd(step.beta1);
  const __m256d b2 = _mm256_set1_pd(step.beta2);
  const __m256d one_m_b1 = _mm256_set1_pd(1.0 - step.beta1);
  const __m256d one_m_b2 = _mm256_set1_pd(1.0 - step.beta2);
  const __m256d bc1 = _mm256_set1_pd(step.bias_corr1);
  const __m256d bc2 = _mm256_set1_pd(step.bias_corr2);
  const __m256d lr = _mm256_set1_pd(step.lr);
  const __m256d eps = _mm256_set1_pd(step.eps);
  unsigned long i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d wi = _mm256_loadu_pd(w + i);
    const __m256d gi = _mm256_loadu_pd(g + i);
    const __m256d mi = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                                     _mm256_mul_pd(one_m_b1, gi));
    const __m256d vi = _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
                                     _mm256_mul_pd(one_m_b2, _mm256_mul_pd(gi, gi)));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d mhat = _mm256_div_pd(mi, bc1);
    const __m256d vhat = _mm256_div_pd(vi, bc2);
    const __m256d denom = _mm256_add_pd(_mm256_sqrt_pd(vhat), eps);
    _mm256_storeu_pd(
        w + i, _mm256_sub_pd(wi, _mm256_div_pd(_mm256_mul_pd(lr, mhat), denom)));
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

const DenseKernels& dense_kernels_avx2() {
  static constexpr DenseKernels kTable = {
      .dot = dot_avx2,
      .gather = gather_avx2,
      .layer_fwd = layer_fwd_avx2,
      .layer_grad = layer_grad_avx2,
      .layer_grad_live = layer_grad_live_avx2,
      .layer_back = layer_back_avx2,
      .softmax_xent = softmax_xent_avx2,
      .fake_quantize = fake_quantize_avx2,
      .abs_max = abs_max_avx2,
      .adam = adam_avx2};
  return kTable;
}

}  // namespace pnm::simd

#endif  // defined(__x86_64__)

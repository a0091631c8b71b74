#ifndef PNM_NN_DENSE_SIMD_HPP
#define PNM_NN_DENSE_SIMD_HPP

/// \file dense_simd.hpp
/// \brief Runtime-dispatched double-precision kernels for the trainer's
/// dense hot path (minibatch gather / forward / gradient / backward,
/// the softmax cross-entropy gradient, the QAT scale and fake-quantizer,
/// and the Adam update), plus the float inference dot product.
///
/// These kernels are the "vectorized fine-tuning math" companion to the
/// integer multi-sample engine in core/infer_simd.hpp, and they share its
/// dispatch: simd::active_isa() picks AVX2 / NEON / scalar once per
/// process, and PNM_FORCE_SCALAR pins everything to the portable path.
///
/// Determinism contract — results are identical on every ISA:
///  * fake_quantize / adam are elementwise over independent outputs;
///    each lane performs the same individually-rounded mul/add/sqrt/div
///    sequence as the scalar loop, so vectorizing them cannot change a
///    single bit.  gather only copies, and abs_max is a
///    maximum whose result does not depend on its grouping.
///  * dot is a reduction, so its summation order IS its semantics.  The
///    canonical order is four independent accumulator chains over
///    columns c ≡ 0..3 (mod 4), tail columns appended to chains 0..2 in
///    order, combined as (c0+c1)+(c2+c3).  The scalar fallback implements
///    exactly this order, and the vector kernels map chain j to lane j —
///    so scalar, AVX2, and NEON agree bit-for-bit.
///  * The blocked layer kernels and the softmax define one order per
///    output as well (documented per slot below); the scalar functions
///    spell it out and the vector ones reproduce it.
///  * No FMA anywhere (the build pins -ffp-contract=off on these TUs):
///    a fused multiply-add rounds once where mul+add rounds twice, which
///    would split results between FMA and non-FMA hardware.
///
/// Blocked layout: a minibatch of n samples is ceil(n/8) consecutive
/// 8-lane SoA blocks.  Sample i is lane i%8 of block i/8; a layer buffer
/// of width k holds block b at offset b*k*8 and element e of lane j of
/// that block at b*k*8 + e*8 + j.  Lanes past n in the last block are
/// padding: the gather zero-fills their inputs and the softmax zeroes
/// their deltas, so they contribute exactly nothing.

#include "pnm/core/infer_simd.hpp"

namespace pnm::simd {

/// One Adam element step, shared by weight and bias updates.  The
/// defaults of beta1, beta2 and eps are the training recipe's
/// (nn/trainer.hpp).  bc1/bc2 are the bias-correction denominators
/// 1 - beta^t, precomputed once per optimizer step.
struct AdamStep {
  double beta1 = 0.9;
  double beta2 = 0.999;
  double bias_corr1 = 1.0;
  double bias_corr2 = 1.0;
  double lr = 1e-3;
  double eps = 1e-8;
};

/// Lane count of the sample-blocked trainer kernels below — the same
/// 8-sample SoA blocking as the integer inference engine, and likewise
/// ISA-independent (buffers are laid out element*8 + lane).
inline constexpr unsigned long kDenseBlock = 8;
static_assert(kDenseBlock == kSampleBlock,
              "trainer and inference engines share one blocked layout");

/// The dispatched kernel table.  All pointers are non-null.
struct DenseKernels {
  /// Canonical 4-chain dot product of a[0..n) and b[0..n) (see file
  /// comment for the exact summation order).
  double (*dot)(const double* a, const double* b, unsigned long n);
  /// Minibatch gather into ceil(n/8) SoA blocks (cols wide): for every
  /// sample i < n and feature c < cols,
  ///   out[(i/8)*cols*8 + c*8 + i%8] = rows[i][c]
  /// and every padding lane of the last block is set to +0.0.  A pure
  /// copy, so every ISA writes the same bits.  out must not overlap a row.
  void (*gather)(const double* const* rows, unsigned long n, unsigned long cols,
                 double* out);
  /// Dense layer forward over `blocks` SoA blocks (in: cols wide, out:
  /// rows wide), for every block and lane j:
  ///   out[r*8+j] = bias[r] + sum_c w[r*cols+c] * in[c*8+j]
  /// with c ascending — each lane is one independent single-chain sum, so
  /// every ISA (and every lane) computes the classic per-sample order.
  /// With relu set, each output is then replaced by (x > 0 ? x : 0.0).
  void (*layer_fwd)(const double* w, const double* bias, const double* in,
                    double* out, unsigned long rows, unsigned long cols,
                    unsigned long blocks, bool relu);
  /// Scaled gradient over `blocks` SoA blocks (delta: rows wide, in: cols
  /// wide), stored — gw and gb are overwritten, never read:
  ///   gw[r*cols+c] = (0.0 + G_0 + G_1 + ... + G_{blocks-1}) * s
  ///   gb[r]        = (0.0 + B_0 + B_1 + ... + B_{blocks-1}) * s
  /// summed left to right from +0.0, where block b contributes
  ///   G_b = sum8_j delta[r*8+j] * in[c*8+j],  B_b = sum8_j delta[r*8+j]
  /// and sum8 is the canonical lane reduction: chains q_j = p_j + p_{j+4}
  /// combined as (q0+q1)+(q2+q3) — identical on every ISA.  These are the
  /// operations, in order, of zeroing gw/gb, adding each block's sum8, and
  /// then multiplying every element by s, so the fused store is the same
  /// bit for bit as those three passes.
  void (*layer_grad)(const double* delta, const double* in, double* gw,
                     double* gb, unsigned long rows, unsigned long cols,
                     unsigned long blocks, double s);
  /// layer_grad over a layer's live weights only (Trainer::fit_live), with
  /// the weight gradients stored packed.  Live weight k sits in row r when
  /// row_begin[r] <= k < row_begin[r+1] (rows + 1 ascending offsets from
  /// row_begin[0] = 0), in column col[k] < cols; a row may hold any number
  /// of them, none included.  Stores, for every live k and every row r,
  ///   gw[k] = layer_grad's gw[r*cols + col[k]],  gb[r] = layer_grad's gb[r]
  /// bit for bit: the same canonical sum8 per block, summed from +0.0 in
  /// block order, then scaled by s.
  void (*layer_grad_live)(const double* delta, const double* in, double* gw,
                          double* gb, unsigned long rows, unsigned long cols,
                          unsigned long blocks, double s,
                          const unsigned long* row_begin, const unsigned long* col);
  /// Backward (transposed) pass over `blocks` SoA blocks (delta: rows
  /// wide, prev: cols wide), overwriting prev:
  ///   prev[c*8+j] = 0.0 + sum_r w[r*cols+c] * delta[r*8+j]
  /// with r ascending per lane.  When relu_post (cols wide, the ReLU
  /// outputs of the layer below) is non-null, every prev element whose
  /// relu_post element is <= 0 is then set to 0.0 — the ReLU gradient.
  void (*layer_back)(const double* w, const double* delta,
                     const double* relu_post, double* prev, unsigned long rows,
                     unsigned long cols, unsigned long blocks);
  /// Fast softmax cross-entropy gradient over n samples whose `rows`
  /// logits sit in ceil(n/8) SoA blocks; writes dL/dlogits to delta (same
  /// layout).  Per lane, exactly the per-sample fast softmax that
  /// tests/trainer_reference.hpp keeps as its reference: the max as
  /// std::max_element picks it, e_r = fast_exp(z_r - max), denom summed
  /// from 0.0 in r order, delta_r = e_r * (1.0 / denom), then
  /// delta_label -= 1.0.  Padding lanes get delta 0.0.  labels[i] (< rows)
  /// is sample i's class.  The AVX2 kernel steps one exp polynomial across
  /// four rows' vectors at a time; per lane the operations are unchanged.
  void (*softmax_xent)(const double* logits, const unsigned long* labels,
                       unsigned long n, unsigned long rows, double* delta);
  /// Symmetric fake quantization of src[0..n) into dst (may alias):
  ///   dst[i] = clamp(round(src[i] / scale), -qmax, qmax) * scale
  /// rounding half away from zero (llround's rule) through an exact
  /// truncate-and-fix-up, with zero codes as +0.0 — the QAT weight view.
  /// scale must be positive.
  void (*fake_quantize)(const double* src, double* dst, unsigned long n,
                        double scale, double qmax);
  /// The QAT scale's magnitude: the serial fold m = std::max(m, |x[i]|)
  /// over i in [0, n) from m = +0.0.  That fold skips NaN and maps both
  /// zeros to +0.0, so it is the maximum of a set whose equal values share
  /// one bit pattern: any grouping returns the same bits, and the vector
  /// kernels fold independent lanes.
  double (*abs_max)(const double* x, unsigned long n);
  /// Adam update of w[0..n) with gradient g, first/second moment m/v:
  ///   m[i] = b1*m[i] + (1-b1)*g[i];  v[i] = b2*v[i] + (1-b2)*g[i]*g[i]
  ///   w[i] -= lr * (m[i]/bc1) / (sqrt(v[i]/bc2) + eps)
  void (*adam)(double* w, const double* g, double* m, double* v,
               unsigned long n, const AdamStep& step);
};

/// Kernel table for the process-wide active ISA (resolved on first call,
/// like active_isa()).  Always usable: the scalar table is the fallback.
const DenseKernels& dense_kernels();

/// Pins dense_kernels() to a specific ISA's table (scalar fallback when
/// that ISA is unavailable).  A bench/test hook — results are identical
/// on every table by the determinism contract, so this only changes
/// speed.  Not thread-safe against concurrent training.
void force_dense_kernels(Isa isa);

/// Undoes force_dense_kernels: back to the active-ISA table.
void reset_dense_kernels();

/// Kernel table for a specific ISA, or nullptr when that ISA is not
/// compiled in / not supported by this CPU.  Lets tests pin scalar vs
/// native tables side by side and assert bit-identical results.
const DenseKernels* dense_kernels_for(Isa isa);

}  // namespace pnm::simd

#endif  // PNM_NN_DENSE_SIMD_HPP

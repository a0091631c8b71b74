/// \file infer_simd_neon.cpp
/// \brief NEON (AArch64 Advanced SIMD) 32-bit layer-block kernel.
///
/// Same construction as the AVX2 kernel on 128-bit registers: two
/// int32x4 vectors per 8-sample block.  The model's lane rule
/// (QuantizedMlp::lane_bits) keeps every product and partial sum in
/// int32, so each lane's operations equal the scalar int64 ones:
///
///  * s == 0: `vmlaq_n_s32` by the signed code;
///  * s > 0: `vmulq_n_s32` by the magnitude, `vshlq_s32` by -s (an
///    arithmetic right shift, identical to the scalar `>> s`), then the
///    conditional negation `(t ^ m) - m`;
///  * ReLU: `vmaxq_s32` against zero.

#if defined(__aarch64__)

#include <arm_neon.h>

#include "pnm/core/infer_simd.hpp"

namespace pnm::simd {

namespace {

/// The kernel over R int32x4 registers (R / 2 blocks) per activation row.
template <std::size_t R>
void layer_regs(const LayerBlockArgs<std::int32_t>& a) {
  static_assert(kSampleBlock == 8, "kernel assumes two 4-lane NEON registers per block");
  constexpr std::size_t kW = R * 4;
  const int s = a.acc_shift;
  const int32x4_t sh = vdupq_n_s32(-s);  // vshlq_s32 by -s == arithmetic >> s
  for (std::size_t r = 0; r < a.out_features; ++r) {
    int32x4_t acc[R];
    for (std::size_t i = 0; i < R; ++i) {
      acc[i] = vdupq_n_s32(static_cast<std::int32_t>(a.bias[r] >> s));
    }
    if (s == 0) {
      for (std::size_t k = a.row_offset[r]; k < a.row_offset[r + 1]; ++k) {
        const std::int32_t w = a.w_val[k];
        const std::int32_t* lane = a.x + a.w_col[k] * kW;
        for (std::size_t i = 0; i < R; ++i) {
          acc[i] = vmlaq_n_s32(acc[i], vld1q_s32(lane + 4 * i), w);
        }
      }
    } else {
      for (std::size_t k = a.row_offset[r]; k < a.row_offset[r + 1]; ++k) {
        const std::int32_t mag = a.w_mag[k];
        // All-ones where the code is negative: (t ^ m) - m negates those lanes.
        const int32x4_t m = vdupq_n_s32(-static_cast<std::int32_t>(a.w_neg[k]));
        const std::int32_t* lane = a.x + a.w_col[k] * kW;
        for (std::size_t i = 0; i < R; ++i) {
          const int32x4_t t = vshlq_s32(vmulq_n_s32(vld1q_s32(lane + 4 * i), mag), sh);
          acc[i] = vaddq_s32(acc[i], vsubq_s32(veorq_s32(t, m), m));
        }
      }
    }
    std::int32_t* out = a.out + r * kW;
    for (std::size_t i = 0; i < R; ++i) {
      if (a.relu) acc[i] = vmaxq_s32(acc[i], vdupq_n_s32(0));
      vst1q_s32(out + 4 * i, acc[i]);
    }
  }
}

}  // namespace

void layer_block_neon(const LayerBlockArgs<std::int32_t>& a) {
  if (a.blocks == kPassBlocks) {
    layer_regs<2 * kPassBlocks>(a);
  } else {
    layer_regs<2>(a);
  }
}

}  // namespace pnm::simd

#endif  // defined(__aarch64__)

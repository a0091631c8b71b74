/// \file infer_simd_avx2.cpp
/// \brief AVX2 32-bit layer-block kernel (x86-64 only; this TU builds with
///        -mavx2, so nothing here may be referenced unguarded from
///        portable code).
///
/// One 256-bit register holds a block's 8 int32 lanes.  The model's lane
/// rule (QuantizedMlp::lane_bits) keeps every product and partial sum in
/// int32, so each lane's operations equal the scalar int64 ones:
///
///  * s == 0: `vpmulld` by the signed code, then `vpaddd`;
///  * s > 0: `vpmulld` by the magnitude, `vpsrad` (arithmetic, so floor
///    like the scalar `>> s`), then `vpsignd` by the signed code, which
///    negates the lanes of a negative weight (the code is never 0);
///  * ReLU: `vpmaxsd` against zero.

#if defined(__x86_64__)

#include <immintrin.h>

#include "pnm/core/infer_simd.hpp"

namespace pnm::simd {

namespace {

/// The kernel over R registers (R blocks) per activation row.
template <std::size_t R>
void layer_regs(const LayerBlockArgs<std::int32_t>& a) {
  static_assert(kSampleBlock == 8, "kernel assumes one 8-lane AVX2 register per block");
  constexpr std::size_t kW = R * kSampleBlock;
  const int s = a.acc_shift;
  const __m128i cnt = _mm_cvtsi32_si128(s);
  for (std::size_t r = 0; r < a.out_features; ++r) {
    __m256i acc[R];
    for (std::size_t i = 0; i < R; ++i) {
      acc[i] = _mm256_set1_epi32(static_cast<std::int32_t>(a.bias[r] >> s));
    }
    if (s == 0) {
      for (std::size_t k = a.row_offset[r]; k < a.row_offset[r + 1]; ++k) {
        const __m256i w = _mm256_set1_epi32(a.w_val[k]);
        const std::int32_t* lane = a.x + a.w_col[k] * kW;
        for (std::size_t i = 0; i < R; ++i) {
          const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lane + 8 * i));
          acc[i] = _mm256_add_epi32(acc[i], _mm256_mullo_epi32(x, w));
        }
      }
    } else {
      for (std::size_t k = a.row_offset[r]; k < a.row_offset[r + 1]; ++k) {
        const __m256i mag = _mm256_set1_epi32(a.w_mag[k]);
        const __m256i sign = _mm256_set1_epi32(a.w_val[k]);
        const std::int32_t* lane = a.x + a.w_col[k] * kW;
        for (std::size_t i = 0; i < R; ++i) {
          const __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lane + 8 * i));
          const __m256i t = _mm256_sra_epi32(_mm256_mullo_epi32(x, mag), cnt);
          acc[i] = _mm256_add_epi32(acc[i], _mm256_sign_epi32(t, sign));
        }
      }
    }
    std::int32_t* out = a.out + r * kW;
    for (std::size_t i = 0; i < R; ++i) {
      if (a.relu) acc[i] = _mm256_max_epi32(acc[i], _mm256_setzero_si256());
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8 * i), acc[i]);
    }
  }
}

}  // namespace

void layer_block_avx2(const LayerBlockArgs<std::int32_t>& a) {
  if (a.blocks == kPassBlocks) {
    layer_regs<kPassBlocks>(a);
  } else {
    layer_regs<1>(a);
  }
}

}  // namespace pnm::simd

#endif  // defined(__x86_64__)

#ifndef PNM_NN_FASTMATH_AVX2_HPP
#define PNM_NN_FASTMATH_AVX2_HPP

/// \file fastmath_avx2.hpp
/// \brief The 4-lane AVX2 twin of fast_log (nn/fastmath.hpp), used by the
/// trainer's AVX2 softmax kernel.  Internal to the library and its tests;
/// include it only on x86-64.
///
/// The function carries its own target attribute, so a caller needs AVX2
/// at run time (simd::isa_available) rather than -mavx2 at build time.

#include <immintrin.h>

#include <iterator>

#include "pnm/nn/fastmath.hpp"

namespace pnm::simd {

/// fast_log on four lanes, operation for operation: the same exponent and
/// mantissa split, the same halving above sqrt 2, the same atanh series and
/// the same reconstruction, so every lane equals fast_log's bits for every
/// input.  The exponent becomes a double exactly: the biased exponent
/// (< 2^11) ORed into 2^52's mantissa, minus 2^52, then - 1023 and + 1 on
/// halved lanes, all exact small-integer arithmetic.
[[gnu::target("avx2")]] inline __m256d fast_log4(__m256d x) {
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256d two52 = _mm256_set1_pd(0x1p52);
  const __m256i biased =
      _mm256_and_si256(_mm256_srli_epi64(bits, 52), _mm256_set1_epi64x(0x7FF));
  const __m256d eb = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(biased, _mm256_castpd_si256(two52))), two52);
  __m256d m = _mm256_castsi256_pd(
      _mm256_or_si256(_mm256_and_si256(bits, _mm256_set1_epi64x(0xFFFFFFFFFFFFFLL)),
                      _mm256_set1_epi64x(0x3FF0000000000000LL)));
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d halve = _mm256_cmp_pd(m, _mm256_set1_pd(fastlog::kSqrt2), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), halve);
  const __m256d ed =
      _mm256_add_pd(_mm256_sub_pd(eb, _mm256_set1_pd(1023.0)), _mm256_and_pd(halve, one));
  const __m256d t = _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d t2 = _mm256_mul_pd(t, t);
  __m256d p = _mm256_set1_pd(fastlog::kSeries[0]);
  for (std::size_t i = 1; i < std::size(fastlog::kSeries); ++i) {
    p = _mm256_add_pd(_mm256_mul_pd(p, t2), _mm256_set1_pd(fastlog::kSeries[i]));
  }
  const __m256d tp = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), t), p);
  return _mm256_add_pd(_mm256_add_pd(tp, _mm256_mul_pd(ed, _mm256_set1_pd(fastexp::kLn2Lo))),
                       _mm256_mul_pd(ed, _mm256_set1_pd(fastexp::kLn2Hi)));
}

}  // namespace pnm::simd

#endif  // PNM_NN_FASTMATH_AVX2_HPP

#ifndef PNM_NN_FASTMATH_HPP
#define PNM_NN_FASTMATH_HPP

/// \file fastmath.hpp
/// \brief Declared accuracy-neutral exp for the fine-tuning hot path.
///
/// Fine-tuning dominates a genome's evaluation, and inside it the softmax
/// cross-entropy gradient takes one exponential per logit.  This layer
/// replaces libm `exp` there, trading *declared, bounded* accuracy for
/// speed:
///
///  * `fast_exp`: range reduction x = k*ln2 + r (two-part ln2 constant),
///    degree-10 Taylor polynomial of e^r on |r| <= ln2/2, result assembled
///    as poly(r) * 2^k by exponent-bit arithmetic.  k = floor(x/ln2 + 1/2)
///    is computed inline (round-to-integer by the 1.5*2^52 addition, then
///    a compare-and-subtract fix-up), so no libm call remains; the batch
///    form is a plain loop (baseline x86-64 has no vector floor), and the
///    trainer's softmax kernel (nn/dense_simd.hpp) vectorizes the same
///    operations with the constants below.
///
/// Error bound (verified over dense grids by nn_fastmath_test, asserted
/// with margin): kFastExpMaxRelError, max |fast_exp(x)/exp(x) - 1| <=
/// 1e-12 for x in [-700, 700].  Below kFastExpUnderflow the result flushes
/// to exactly 0 (libm returns subnormals down to ~-745); softmax feeds
/// only x <= 0 differences where anything below e^-700 is dead weight.
///
/// Anything consuming it is gated by *front quality*, not bit identity:
/// fine-tuning with the fast softmax must land within the declared
/// tolerances of the libm reference (tests/trainer_reference.hpp) and of
/// the golden baseline (nn_fastmath_test.cpp, core_front_quality_test.cpp).

#include <cstddef>

namespace pnm {

/// Documented bound, used by the tests as the contract.
inline constexpr double kFastExpMaxRelError = 1e-12;
/// Inputs below this flush fast_exp to exactly 0 (no subnormal tail).
inline constexpr double kFastExpUnderflow = -708.0;
/// Inputs above this saturate fast_exp to +inf (where exp() overflows).
inline constexpr double kFastExpOverflow = 709.782712893384;

/// fast_exp's reduction constants and polynomial, shared with the vector
/// softmax kernels so every implementation performs the same operations.
namespace fastexp {
inline constexpr double kLog2E = 1.4426950408889634074;      // 1/ln 2
inline constexpr double kLn2Hi = 6.93145751953125e-1;        // ln 2, high 21 bits (exact)
inline constexpr double kLn2Lo = 1.42860682030941723212e-6;  // ln 2 - kLn2Hi
/// 1.5 * 2^52: adding and subtracting it rounds |v| < 2^51 to an integer.
inline constexpr double kRoundMagic = 6755399441055744.0;
/// 2^52 + 1023: k + kExponentMagic carries the biased exponent k + 1023 in
/// its low mantissa bits, so shifting its bit pattern left by 52 yields 2^k.
inline constexpr double kExponentMagic = 4503599627371519.0;
/// Taylor coefficients of e^r, highest degree first (1/10! ... 1/1!, 1).
inline constexpr double kPoly[] = {1.0 / 3628800.0, 1.0 / 362880.0, 1.0 / 40320.0,
                                   1.0 / 5040.0,    1.0 / 720.0,    1.0 / 120.0,
                                   1.0 / 24.0,      1.0 / 6.0,      0.5,
                                   1.0,             1.0};
}  // namespace fastexp

/// e^x with the bound above; monotone clamp: +inf for x > 709.78.
double fast_exp(double x);

/// Batch form: out[i] = fast_exp(x[i]).  One pass with no data-dependent
/// branches and no libm call.  `out` may alias `x`.
void fast_exp(const double* x, double* out, std::size_t n);

}  // namespace pnm

#endif  // PNM_NN_FASTMATH_HPP

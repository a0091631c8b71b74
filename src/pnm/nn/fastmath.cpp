#include "pnm/nn/fastmath.hpp"

#include <bit>
#include <cstdint>
#include <iterator>

namespace pnm {

namespace {

/// e^x for x already clamped to [kFastExpUnderflow, kFastExpOverflow].
/// k = round(x/ln2) = floor(x/ln2 + 1/2), computed exactly without libm:
/// |v| < 1100 here, so the magic addition rounds v to the nearest integer
/// and one compare steps it down where that rounded up.  r = x - k*ln2 via
/// the split constant (the k*kLn2Hi product is exact for |k| <= 2^31, so
/// r carries ~70 bits of reduction); e^r by degree-10 Taylor (truncation
/// < 3e-13 rel at |r| = ln2/2); then scale by 2^k assembled straight into
/// the exponent field.  A NaN input stays NaN with no integer conversion.
inline double exp_core(double x) {
  using namespace fastexp;
  const double v = x * kLog2E + 0.5;
  const double t = (v + kRoundMagic) - kRoundMagic;
  const double kd = t > v ? t - 1.0 : t;
  const double r = (x - kd * kLn2Hi) - kd * kLn2Lo;
  double p = kPoly[0];
  for (std::size_t i = 1; i < std::size(kPoly); ++i) p = p * r + kPoly[i];
  const double scale =
      std::bit_cast<double>(std::bit_cast<std::uint64_t>(kd + kExponentMagic) << 52);
  return p * scale;
}

}  // namespace

double fast_exp(double x) {
  // Branchless clamps (ternaries if-convert): overflow saturates through
  // the k = 1024 => inf exponent pattern, underflow flushes to exactly 0.
  const double hi = x > kFastExpOverflow ? kFastExpOverflow : x;
  const double lo = hi < kFastExpUnderflow ? kFastExpUnderflow : hi;
  const double e = exp_core(lo);
  return x < kFastExpUnderflow ? 0.0 : e;
}

void fast_exp(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    const double hi = xi > kFastExpOverflow ? kFastExpOverflow : xi;
    const double lo = hi < kFastExpUnderflow ? kFastExpUnderflow : hi;
    const double e = exp_core(lo);
    out[i] = xi < kFastExpUnderflow ? 0.0 : e;
  }
}

}  // namespace pnm

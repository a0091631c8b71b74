#ifndef PNM_HW_CSD_HPP
#define PNM_HW_CSD_HPP

/// \file csd.hpp
/// \brief Canonical Signed Digit recoding of hard-wired coefficients.
///
/// A bespoke constant-coefficient multiplier computes w*x as a sum of
/// shifted copies of x, one per nonzero digit of w.  CSD (digits in
/// {-1, 0, +1}, no two adjacent nonzeros) is the minimal-nonzero-digit
/// radix-2 representation, so it minimizes the number of adders — e.g.
/// w = 7 = 8 - 1 costs one subtractor instead of two adders.  This is the
/// standard trick bespoke printed classifiers rely on and one of the
/// reasons low-bit-width weights are so much cheaper (paper §II-A); the
/// CSD ablation of BENCH_paper.txt (bench/reproduce) quantifies it
/// against plain binary recoding.

#include <cstdint>
#include <vector>

namespace pnm::hw {

/// One signed digit of a recoded constant: value in {-1, 0, +1}.
using SignedDigit = std::int8_t;

/// CSD digits of v, least significant first.  Handles negative v (digit
/// signs flip).  to_csd(0) is an empty vector.
std::vector<SignedDigit> to_csd(std::int64_t v);

/// Plain binary signed-digit form: |v|'s bits with the sign applied to
/// every nonzero digit.  Used as the ablation baseline for CSD.
std::vector<SignedDigit> to_binary_digits(std::int64_t v);

/// Reconstructs the value of a signed-digit string (LSB first).  Accepts
/// up to 64 effective digits (CSD of values near the int64 extremes
/// legitimately carries into digit 63); throws std::invalid_argument if
/// the string is longer or its value does not fit an int64.
std::int64_t digits_value(const std::vector<SignedDigit>& digits);

/// Number of nonzero digits (= shifted-operand count of the multiplier).
int nonzero_digit_count(const std::vector<SignedDigit>& digits);

/// True if no two adjacent digits are both nonzero (the CSD property).
bool is_canonical(const std::vector<SignedDigit>& digits);

}  // namespace pnm::hw

#endif  // PNM_HW_CSD_HPP

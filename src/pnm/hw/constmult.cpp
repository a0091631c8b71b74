#include "pnm/hw/constmult.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "pnm/hw/csd.hpp"
#include "pnm/hw/mcm.hpp"
#include "pnm/util/bits.hpp"

namespace pnm::hw {
namespace {

/// Nonzero digits of a signed-digit string as (shift, positive?) pairs,
/// ordered so a positive term (if any) comes first: starting the running
/// sum from a positive operand avoids an explicit negation row.
std::vector<std::pair<int, bool>> digit_terms(const std::vector<SignedDigit>& digits) {
  std::vector<std::pair<int, bool>> terms;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (digits[i] != 0) terms.emplace_back(static_cast<int>(i), digits[i] > 0);
  }
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (terms[i].second) {
      std::rotate(terms.begin(), terms.begin() + static_cast<std::ptrdiff_t>(i),
                  terms.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      break;
    }
  }
  return terms;
}

/// Rows of add/sub hardware a term list costs, and how many of them are
/// subtractions (a subtraction row also pays an inverter per bit).
struct TermCost {
  int rows;
  int subs;
};

TermCost cost_of(const std::vector<std::pair<int, bool>>& terms) {
  if (terms.empty()) return {0, 0};
  int subs = 0;
  for (const auto& [shift, positive] : terms) subs += positive ? 0 : 1;
  const int rows = static_cast<int>(terms.size()) - 1 + (terms.front().second ? 0 : 1);
  return {rows, subs};
}

/// The exact product range of coeff * x for an unsigned input word, with
/// the multiplication overflow-checked: a silent wrap here would re-type
/// the word to a bogus narrow range and corrupt every downstream adder.
std::pair<std::int64_t, std::int64_t> product_range(std::int64_t coeff, const Word& x) {
  const std::int64_t p0 = pnm::checked_mul(coeff, x.lo);
  const std::int64_t p1 = pnm::checked_mul(coeff, x.hi);
  return {std::min(p0, p1), std::max(p0, p1)};
}

}  // namespace

std::vector<std::pair<int, bool>> recode_digit_terms(std::int64_t coeff,
                                                     const MultOptions& options) {
  // Cheapest signed-digit recoding of the coefficient.  CSD minimizes the
  // nonzero-digit count but pays inverters for its subtraction rows, so
  // for some coefficients (e.g. 3 = 2+1 vs 4-1) plain binary is cheaper;
  // a real multiplierless generator picks per coefficient, and so do we
  // when use_csd is set.  use_csd = false forces pure binary (the
  // baseline of BENCH_paper.txt's CSD ablation).
  auto binary = digit_terms(to_binary_digits(coeff));
  if (!options.use_csd) return binary;
  auto csd = digit_terms(to_csd(coeff));
  const TermCost cb = cost_of(binary);
  const TermCost cc = cost_of(csd);
  if (cc.rows != cb.rows) return cc.rows < cb.rows ? csd : binary;
  return cc.subs < cb.subs ? csd : binary;  // tie on rows: fewer subtractors
}

Word const_mult(Netlist& nl, const Word& x, std::int64_t coeff,
                const MultOptions& options) {
  if (x.lo < 0) {
    throw std::invalid_argument("const_mult: input word must be unsigned "
                                "(printed MLP activations are non-negative)");
  }
  Word acc;  // constant zero
  if (coeff == 0 || x.is_const_zero()) return acc;

  for (const auto& [shift, positive] : recode_digit_terms(coeff, options)) {
    const Word term = shift_left(x, shift);
    acc = positive ? add_words(nl, acc, term) : sub_words(nl, acc, term);
  }
  // Interval arithmetic over the chain over-approximates (the shifted
  // terms are all the same x); the true product range is exact because
  // coeff*x is monotone in x.  Refit so downstream adders size exactly.
  const auto [lo, hi] = product_range(coeff, x);
  return refit_word(nl, acc, lo, hi);
}

int const_mult_adder_count(std::int64_t coeff, const MultOptions& options) {
  if (coeff == 0) return 0;
  const auto terms = recode_digit_terms(coeff, options);
  int adders = static_cast<int>(terms.size()) - 1;
  if (!terms.empty() && !terms.front().second) ++adders;  // leading negation row
  return adders;
}

std::map<std::int64_t, Word> const_mult_shared(Netlist& nl, const Word& x,
                                               const std::vector<std::int64_t>& coefficients,
                                               const MultOptions& options,
                                               const std::string& label_prefix,
                                               McmPlan* plan_out) {
  if (x.lo < 0) {
    throw std::invalid_argument("const_mult_shared: input word must be unsigned "
                                "(printed MLP activations are non-negative)");
  }
  std::map<std::int64_t, Word> products;
  if (plan_out != nullptr) *plan_out = McmPlan{};
  if (x.is_const_zero()) {
    for (const std::int64_t c : coefficients) {
      if (c <= 0) throw std::invalid_argument("const_mult_shared: coefficients must be positive");
      products.emplace(c, Word{});
    }
    return products;
  }

  // Memoized: the netlist generator and the area proxy lower/price the
  // same per-column coefficient multisets, so the DAG plans once.
  const std::shared_ptr<const McmPlan> plan_ptr = plan_mcm_cached(coefficients, options);
  const McmPlan& plan = *plan_ptr;
  if (plan_out != nullptr) *plan_out = plan;

  // Word per available DAG value, the column input first.
  std::map<std::int64_t, Word> value_words;
  value_words.emplace(1, x);
  auto term_word = [&value_words](const McmTerm& t) {
    return shift_left(value_words.at(t.value), t.shift);
  };
  for (const McmNode& node : plan.nodes) {
    const Word a = term_word(node.a);
    const Word b = term_word(node.b);
    // node.a is positive by construction, so one row suffices.
    Word w = node.b.positive ? add_words(nl, a, b) : sub_words(nl, a, b);
    const auto [lo, hi] = product_range(node.value, x);
    w = refit_word(nl, w, lo, hi);
    if (!label_prefix.empty()) {
      for (int bit = 0; bit < w.width(); ++bit) {
        nl.set_net_label(w.bits[static_cast<std::size_t>(bit)],
                         label_prefix + "_t" + std::to_string(node.value) + "[" +
                             std::to_string(bit) + "]");
      }
    }
    value_words.emplace(node.value, std::move(w));
  }

  for (const auto& [coeff, terms] : plan.sums) {
    Word acc;  // constant zero
    for (const McmTerm& t : terms) {
      const Word term = term_word(t);
      acc = t.positive ? add_words(nl, acc, term) : sub_words(nl, acc, term);
    }
    const auto [lo, hi] = product_range(coeff, x);
    products.emplace(coeff, refit_word(nl, acc, lo, hi));
  }
  return products;
}

}  // namespace pnm::hw

#ifndef PNM_TESTS_FUNCTION_EVALUATOR_HPP
#define PNM_TESTS_FUNCTION_EVALUATOR_HPP

/// \file function_evaluator.hpp
/// \brief Test-only Evaluator over an analytic GenomeFitness callback, for
///        GA and evaluator-stack tests that need a toy objective instead of
///        the prune -> cluster -> fine-tune pipeline.

#include <functional>
#include <string>
#include <utility>

#include "pnm/core/eval.hpp"

namespace pnm {

class FunctionEvaluator final : public Evaluator {
 public:
  explicit FunctionEvaluator(std::function<GenomeFitness(const Genome&)> fn)
      : fn_(std::move(fn)) {}

  DesignPoint evaluate(const Genome& genome) override {
    const GenomeFitness fitness = fn_(genome);
    DesignPoint point;
    point.technique = "function";
    point.config = genome.key();
    point.accuracy = fitness.accuracy;
    point.area_mm2 = fitness.area_mm2;
    return point;
  }
  [[nodiscard]] std::string name() const override { return "function"; }

 private:
  std::function<GenomeFitness(const Genome&)> fn_;
};

}  // namespace pnm

#endif  // PNM_TESTS_FUNCTION_EVALUATOR_HPP

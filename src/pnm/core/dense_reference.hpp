#ifndef PNM_CORE_DENSE_REFERENCE_HPP
#define PNM_CORE_DENSE_REFERENCE_HPP

/// \file dense_reference.hpp
/// \brief The seed commit's dense quantized-inference implementation,
///        kept verbatim as the golden baseline the flat CSR engine is
///        pinned against.
///
/// The bit-exactness tests (tests/core_infer_golden_test.cpp) compare the
/// engine to THIS reference — dense [out][in] rows, per-sample input
/// quantization, magnitude-truncate-then-sign MACs, floor-shifted bias,
/// lowest-index argmax.  Deliberately slow and allocation-happy: do not
/// "optimize" it, its value is being obviously identical to the seed
/// algorithm.

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "pnm/core/qmlp.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/data/dataset.hpp"

namespace pnm {

struct DenseReferenceModel {
  struct Layer {
    std::vector<std::vector<int>> w;
    std::vector<std::int64_t> bias;
    int acc_shift = 0;
    bool relu = false;
  };
  std::vector<Layer> layers;
  int input_bits = 4;

  explicit DenseReferenceModel(const QuantizedMlp& q) : input_bits(q.input_bits()) {
    for (const auto& l : q.layers()) {
      layers.push_back(Layer{l.dense_weights(), l.bias, l.acc_shift,
                             l.act == Activation::kRelu});
    }
  }

  [[nodiscard]] std::vector<std::int64_t> forward(
      const std::vector<std::int64_t>& xq) const {
    std::vector<std::int64_t> cur = xq;
    std::vector<std::int64_t> next;
    for (const auto& l : layers) {
      const int s = l.acc_shift;
      next.assign(l.w.size(), 0);
      for (std::size_t r = 0; r < l.w.size(); ++r) {
        std::int64_t acc = l.bias[r] >> s;
        const auto& row = l.w[r];
        for (std::size_t c = 0; c < row.size(); ++c) {
          if (row[c] == 0) continue;
          const std::int64_t mag =
              (std::llabs(static_cast<long long>(row[c])) * cur[c]) >> s;
          acc += row[c] > 0 ? mag : -mag;
        }
        if (l.relu && acc < 0) acc = 0;
        next[r] = acc;
      }
      cur.swap(next);
    }
    return cur;
  }

  [[nodiscard]] std::size_t predict(const std::vector<double>& x) const {
    const auto out = forward(quantize_input(x, input_bits));
    std::size_t best = 0;
    for (std::size_t i = 1; i < out.size(); ++i) {
      if (out[i] > out[best]) best = i;
    }
    return best;
  }

  [[nodiscard]] double accuracy(const Dataset& data) const {
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (predict(data.x[i]) == data.y[i]) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(data.size());
  }
};

}  // namespace pnm

#endif  // PNM_CORE_DENSE_REFERENCE_HPP

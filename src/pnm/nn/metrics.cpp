#include "pnm/nn/metrics.hpp"

#include <stdexcept>

namespace pnm {

double accuracy(const Predictor& predict, const Dataset& data) {
  data.validate();
  if (data.size() == 0) throw std::invalid_argument("accuracy: empty dataset");
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (predict(data.x[i]) == data.y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

double accuracy(const Mlp& model, const Dataset& data) {
  return accuracy([&model](const std::vector<double>& x) { return model.predict(x); },
                  data);
}

}  // namespace pnm

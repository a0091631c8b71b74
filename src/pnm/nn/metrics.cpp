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

std::vector<std::vector<std::size_t>> confusion_matrix(const Predictor& predict,
                                                       const Dataset& data) {
  data.validate();
  std::vector<std::vector<std::size_t>> cm(data.n_classes,
                                           std::vector<std::size_t>(data.n_classes, 0));
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::size_t pred = predict(data.x[i]);
    if (pred >= data.n_classes) {
      throw std::out_of_range("confusion_matrix: prediction out of class range");
    }
    cm[data.y[i]][pred]++;
  }
  return cm;
}

double balanced_accuracy(const Predictor& predict, const Dataset& data) {
  const auto cm = confusion_matrix(predict, data);
  double sum = 0.0;
  std::size_t present = 0;
  for (std::size_t c = 0; c < cm.size(); ++c) {
    std::size_t row_total = 0;
    for (std::size_t p = 0; p < cm.size(); ++p) row_total += cm[c][p];
    if (row_total == 0) continue;
    sum += static_cast<double>(cm[c][c]) / static_cast<double>(row_total);
    ++present;
  }
  if (present == 0) throw std::invalid_argument("balanced_accuracy: no samples");
  return sum / static_cast<double>(present);
}

}  // namespace pnm

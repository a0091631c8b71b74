#include "pnm/nn/activation.hpp"

#include <stdexcept>

namespace pnm {

void apply_activation(Activation act, std::vector<double>& v) {
  switch (act) {
    case Activation::kIdentity:
      return;
    case Activation::kRelu:
      for (auto& x : v) x = x > 0.0 ? x : 0.0;
      return;
  }
  throw std::logic_error("apply_activation: unknown activation");
}

std::string activation_name(Activation act) {
  switch (act) {
    case Activation::kIdentity: return "identity";
    case Activation::kRelu: return "relu";
  }
  throw std::logic_error("activation_name: unknown activation");
}

Activation activation_from_name(const std::string& name) {
  if (name == "identity") return Activation::kIdentity;
  if (name == "relu") return Activation::kRelu;
  throw std::invalid_argument("activation_from_name: unknown activation '" + name + "'");
}

}  // namespace pnm

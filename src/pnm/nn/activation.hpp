#ifndef PNM_NN_ACTIVATION_HPP
#define PNM_NN_ACTIVATION_HPP

/// \file activation.hpp
/// \brief Activation functions for the MLP substrate.
///
/// Bespoke printed MLPs use ReLU in hidden layers (cheap in hardware: sign
/// test + AND gates) and a raw-logit output layer resolved by an argmax
/// comparator tree; see Mubarik et al. (MICRO 2020).  Those are the only
/// two activations: every one of them lowers to hardware.

#include <string>
#include <vector>

namespace pnm {

enum class Activation {
  kIdentity,  ///< f(x) = x (output layers; argmax resolved downstream).
  kRelu,      ///< f(x) = max(0, x) (hardware-friendly; hidden layers).
};

/// Applies the activation elementwise in place.
void apply_activation(Activation act, std::vector<double>& v);

/// Human-readable name ("relu", "identity").
std::string activation_name(Activation act);

/// Inverse of activation_name; throws std::invalid_argument on unknown name.
Activation activation_from_name(const std::string& name);

}  // namespace pnm

#endif  // PNM_NN_ACTIVATION_HPP

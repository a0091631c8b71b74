/// Tests for the two activation functions and their names.

#include "pnm/nn/activation.hpp"

#include <gtest/gtest.h>

namespace pnm {
namespace {

TEST(Activation, ReluClampsNegatives) {
  std::vector<double> v = {-2.0, -0.0, 0.5, 3.0};
  apply_activation(Activation::kRelu, v);
  EXPECT_EQ(v[0], 0.0);
  EXPECT_EQ(v[1], 0.0);
  EXPECT_EQ(v[2], 0.5);
  EXPECT_EQ(v[3], 3.0);
}

TEST(Activation, IdentityIsNoop) {
  std::vector<double> v = {-1.0, 2.0};
  apply_activation(Activation::kIdentity, v);
  EXPECT_EQ(v[0], -1.0);
  EXPECT_EQ(v[1], 2.0);
}

TEST(ActivationNames, RoundTrip) {
  for (Activation a : {Activation::kIdentity, Activation::kRelu}) {
    EXPECT_EQ(activation_from_name(activation_name(a)), a);
  }
}

TEST(ActivationNames, UnknownNameThrows) {
  for (const char* name : {"swish", "sigmoid", "tanh", ""}) {
    EXPECT_THROW(activation_from_name(name), std::invalid_argument) << name;
  }
}

}  // namespace
}  // namespace pnm

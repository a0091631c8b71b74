/// Tests for the pnm-model v1 text format: exact round-trips (structure,
/// codes, scales, predictions), atomic file save/load, and strict
/// rejection of malformed input — the serve layer hot-swaps whatever file
/// it is pointed at, so the parser is a trust boundary.

#include "pnm/core/model_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "pnm/core/qmlp.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/util/rng.hpp"

namespace pnm {
namespace {

QuantizedMlp make_model(std::uint64_t seed, std::vector<std::size_t> topology = {6, 5, 3},
                        int weight_bits = 5, int input_bits = 4) {
  Rng rng(seed);
  const Mlp net(topology, rng);
  return QuantizedMlp::from_float(
      net, QuantSpec::uniform(topology.size() - 1, weight_bits, input_bits));
}

void expect_identical(const QuantizedMlp& a, const QuantizedMlp& b) {
  ASSERT_EQ(a.layer_count(), b.layer_count());
  EXPECT_EQ(a.input_bits(), b.input_bits());
  for (std::size_t li = 0; li < a.layer_count(); ++li) {
    const QuantizedLayer& la = a.layer(li);
    const QuantizedLayer& lb = b.layer(li);
    EXPECT_EQ(la.out_features(), lb.out_features());
    EXPECT_EQ(la.in_features(), lb.in_features());
    EXPECT_EQ(la.weight_bits, lb.weight_bits);
    EXPECT_EQ(la.acc_shift, lb.acc_shift);
    EXPECT_EQ(la.act, lb.act);
    EXPECT_EQ(la.weight_scale, lb.weight_scale);  // bit-exact round-trip
    EXPECT_EQ(la.bias, lb.bias);
    EXPECT_EQ(la.w_mag, lb.w_mag);
    EXPECT_EQ(la.w_neg, lb.w_neg);
    EXPECT_EQ(la.w_val, lb.w_val);
    EXPECT_EQ(la.w_col, lb.w_col);
    EXPECT_EQ(la.row_offset, lb.row_offset);
  }
}

TEST(ModelIo, TextRoundTripIsExact) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const QuantizedMlp model = make_model(seed);
    const std::string text = save_quantized_mlp_text(model, "rt");
    const QuantizedMlp back = parse_quantized_mlp_text(text);
    expect_identical(model, back);

    // Same predictions, sample by sample.
    Rng rng(seed + 100);
    InferScratch sa;
    InferScratch sb;
    std::vector<std::int64_t> xq;
    for (int i = 0; i < 50; ++i) {
      std::vector<double> x(model.input_size());
      for (auto& v : x) v = rng.uniform();
      quantize_input_into(x, model.input_bits(), xq);
      EXPECT_EQ(model.predict_quantized_into(xq, sa),
                back.predict_quantized_into(xq, sb));
    }
  }
}

TEST(ModelIo, ReserializationIsStable) {
  const QuantizedMlp model = make_model(9);
  const std::string once = save_quantized_mlp_text(model, "stable");
  const std::string twice = save_quantized_mlp_text(parse_quantized_mlp_text(once), "stable");
  EXPECT_EQ(once, twice);
}

TEST(ModelIo, FileRoundTripAndName) {
  const std::string path = ::testing::TempDir() + "pnm_model_io_rt.pnm";
  const QuantizedMlp model = make_model(3);
  ASSERT_TRUE(save_quantized_mlp(model, path, "my-design"));
  const QuantizedMlp back = load_quantized_mlp(path);
  expect_identical(model, back);
  EXPECT_EQ(quantized_mlp_file_name(path), "my-design");
  std::remove(path.c_str());
}

TEST(ModelIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_quantized_mlp(::testing::TempDir() + "pnm_model_io_nope.pnm"),
               std::runtime_error);
}

TEST(ModelIo, RejectsMalformedText) {
  const QuantizedMlp model = make_model(5);
  const std::string good = save_quantized_mlp_text(model, "m");

  // Wrong magic / version.
  EXPECT_THROW(parse_quantized_mlp_text("not-a-model v1\nend\n"), std::runtime_error);
  EXPECT_THROW(parse_quantized_mlp_text("pnm-model v2\nend\n"), std::runtime_error);
  // Empty / truncated documents.
  EXPECT_THROW(parse_quantized_mlp_text(""), std::runtime_error);
  EXPECT_THROW(parse_quantized_mlp_text(good.substr(0, good.size() / 2)),
               std::runtime_error);
  // Trailing garbage after `end`.
  EXPECT_THROW(parse_quantized_mlp_text(good + "extra\n"), std::runtime_error);
}

TEST(ModelIo, RejectsHostileLayerShapes) {
  // Regression: a 60-byte header declaring a 1048576x1048576 layer used
  // to reserve ~4 TiB before any row data was read.  The parser now
  // carries a total weight budget, so the rejection must arrive from the
  // header alone.
  const auto expect_too_large = [](const std::string& text) {
    try {
      parse_quantized_mlp_text(text);
      FAIL() << "hostile header was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("model too large"), std::string::npos)
          << e.what();
    }
  };
  expect_too_large(
      "pnm-model v1\nname evil\ninput_bits 4\n"
      "layers 1\nlayer 0 1048576 1048576 5 0 relu 1\n");
  // The budget is cumulative across layers: 16x1048576 alone is exactly
  // the 2^24 budget, but not after a first layer already spent 4 of it.
  expect_too_large(
      "pnm-model v1\nname evil\ninput_bits 4\n"
      "layers 2\n"
      "layer 0 2 2 5 0 relu 1\nbias 0 1 -1\nrow 0 0 1 0 1\nrow 0 1 1 1 1\n"
      "layer 1 16 1048576 5 0 relu 1\n");
}

/// A layer may name only an activation the model can run: identity or
/// relu.  Smooth activations are unknown names to the parser.
TEST(ModelIo, RejectsSmoothActivations) {
  const std::string good = save_quantized_mlp_text(make_model(8), "m");
  const auto relu = good.find(" relu ");
  ASSERT_NE(relu, std::string::npos);
  for (const char* name : {"sigmoid", "tanh"}) {
    std::string bad = good;
    bad.replace(relu + 1, 4, name);
    try {
      parse_quantized_mlp_text(bad);
      ADD_FAILURE() << name << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown activation"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ModelIo, RejectsCorruptedRecords) {
  const QuantizedMlp model = make_model(6);
  const std::string good = save_quantized_mlp_text(model, "m");

  // A weight code of 0 is not representable (CSR stores nonzeros only).
  {
    std::string bad = good;
    const auto pos = bad.find("row 0 0 ");
    ASSERT_NE(pos, std::string::npos);
    // Rewrite the first row as a single zero-valued entry.
    const auto eol = bad.find('\n', pos);
    bad.replace(pos, eol - pos, "row 0 0 1 0 0");
    EXPECT_THROW(parse_quantized_mlp_text(bad), std::runtime_error);
  }
  // Duplicate column index within a row.
  {
    std::string bad = good;
    const auto pos = bad.find("row 0 0 ");
    const auto eol = bad.find('\n', pos);
    bad.replace(pos, eol - pos, "row 0 0 2 1 3 1 -2");
    EXPECT_THROW(parse_quantized_mlp_text(bad), std::runtime_error);
  }
  // Out-of-range column index.
  {
    std::string bad = good;
    const auto pos = bad.find("row 0 0 ");
    const auto eol = bad.find('\n', pos);
    bad.replace(pos, eol - pos, "row 0 0 1 99 3");
    EXPECT_THROW(parse_quantized_mlp_text(bad), std::runtime_error);
  }
}

/// Regression: a model whose integer inference overflows int64 parsed,
/// and predicting with it was signed overflow (1500 + INT64_MAX).  The
/// range walk is checked, so the builders refuse it; a sum that ends
/// exactly at INT64_MAX still loads and predicts.
TEST(ModelIo, RejectsAccumulatorRangesBeyondInt64) {
  const auto model_text = [](const std::string& bias0, int w0) {
    return "pnm-model v1\nname overflow\ninput_bits 4\nlayers 1\n"
           "layer 0 2 1 8 0 identity 1\nbias 0 " +
           bias0 + " 0\nrow 0 0 1 0 " + std::to_string(w0) + "\nrow 0 1 1 0 1\nend\n";
  };
  EXPECT_THROW(parse_quantized_mlp_text(model_text("9223372036854775807", 100)),
               std::invalid_argument);
  EXPECT_THROW(parse_quantized_mlp_text(model_text("-9223372036854775807", -100)),
               std::invalid_argument);

  const QuantizedMlp edge = parse_quantized_mlp_text(model_text("9223372036854774307", 100));
  EXPECT_EQ(edge.lane_bits(), 64);
  EXPECT_EQ(edge.neuron_preact_ranges()[0][0].hi, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(edge.predict_quantized({15}), 0U);
  EXPECT_EQ(edge.forward({15})[0], std::numeric_limits<std::int64_t>::max());

  // A product that leaves int64 is refused as well: the hidden identity
  // layer reaches 2^62, and 4 * 2^62 does not fit.
  std::vector<QuantizedLayer> layers(2);
  layers[0].set_dense(1, 1, {1});
  layers[0].bias = {std::int64_t{1} << 62};
  layers[0].weight_bits = 4;
  layers[1].set_dense(1, 1, {4});
  layers[1].bias = {0};
  layers[1].weight_bits = 4;
  EXPECT_THROW(QuantizedMlp::from_layers(layers, 4), std::invalid_argument);
  layers[1].set_dense(1, 1, {1});
  EXPECT_EQ(QuantizedMlp::from_layers(layers, 4).lane_bits(), 64);
}

TEST(FromLayers, ValidatesStructure) {
  const QuantizedMlp model = make_model(7);
  std::vector<QuantizedLayer> layers;
  for (std::size_t li = 0; li < model.layer_count(); ++li) layers.push_back(model.layer(li));

  // The original layers reassemble fine.
  const QuantizedMlp ok = QuantizedMlp::from_layers(layers, model.input_bits());
  expect_identical(model, ok);

  // Broken layer chaining: widen layer 1's input by a zero column so its
  // in_features no longer matches layer 0's out_features.
  {
    auto bad = layers;
    const auto dense = bad[1].dense_weights();
    std::vector<int> codes;
    for (const auto& row : dense) {
      codes.insert(codes.end(), row.begin(), row.end());
      codes.push_back(0);
    }
    bad[1].set_dense(dense.size(), bad[1].in_features() + 1, codes);
    EXPECT_THROW(QuantizedMlp::from_layers(bad, 4), std::invalid_argument);
  }
  // Sign/value disagreement.
  {
    auto bad = layers;
    ASSERT_FALSE(bad[0].w_val.empty());
    bad[0].w_val[0] = -bad[0].w_val[0];
    EXPECT_THROW(QuantizedMlp::from_layers(bad, 4), std::invalid_argument);
  }
  // Non-monotone row offsets.
  {
    auto bad = layers;
    ASSERT_GE(bad[0].row_offset.size(), 2U);
    bad[0].row_offset[1] = bad[0].row_offset.back() + 1;
    EXPECT_THROW(QuantizedMlp::from_layers(bad, 4), std::invalid_argument);
  }
  // Input bits out of range.
  EXPECT_THROW(QuantizedMlp::from_layers(layers, 0), std::invalid_argument);
  EXPECT_THROW(QuantizedMlp::from_layers(layers, 17), std::invalid_argument);
  // No layers at all.
  EXPECT_THROW(QuantizedMlp::from_layers({}, 4), std::invalid_argument);
}

}  // namespace
}  // namespace pnm

/// Tests for the multi-model registry and its serving semantics: name
/// validation and duplicate rejection, empty-name routing to the default
/// model, typed unknown-model errors that leave the connection serving,
/// per-model swap isolation (swapping A never moves B's version), and
/// the multi-reactor accounting identities — two concurrent loadgens on
/// different models of a 2-reactor server must reconcile exactly with
/// the aggregated server-side stats snapshot.

#include "pnm/serve/registry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "pnm/core/model_io.hpp"
#include "pnm/serve/client.hpp"
#include "pnm/serve/server.hpp"

#include "serve_test_util.hpp"

namespace pnm::serve {
namespace {

TEST(ModelRegistry, RegistrationValidatesNamesAndRejectsDuplicates) {
  ModelRegistry registry;
  std::string error;
  EXPECT_TRUE(registry.register_model("alpha", {make_model(1), 0, "", ""}, &error));
  EXPECT_EQ(registry.default_name(), "alpha");
  EXPECT_EQ(registry.size(), 1U);

  // Duplicate names are rejected and leave the registry unchanged.
  EXPECT_FALSE(registry.register_model("alpha", {make_model(2), 0, "", ""}, &error));
  EXPECT_EQ(error, "duplicate model name");
  EXPECT_EQ(registry.size(), 1U);

  // Invalid names: empty, '=' (the CLI's NAME=FILE separator), too long.
  EXPECT_FALSE(registry.register_model("", {make_model(2), 0, "", ""}, &error));
  EXPECT_FALSE(registry.register_model("a=b", {make_model(2), 0, "", ""}, &error));
  EXPECT_FALSE(registry.register_model(std::string(kMaxModelName + 1, 'x'),
                                       {make_model(2), 0, "", ""}, &error));
  // An empty model is refused too.
  EXPECT_FALSE(registry.register_model("empty", {QuantizedMlp{}, 0, "", ""}, &error));
  EXPECT_EQ(registry.size(), 1U);

  // "" resolves to the default (first-registered) model; unknown names
  // resolve to nothing.
  EXPECT_TRUE(registry.register_model("beta", {make_model(3), 0, "", ""}, &error));
  ASSERT_NE(registry.get(""), nullptr);
  EXPECT_EQ(registry.get("")->name, "alpha");
  EXPECT_EQ(registry.get("beta")->name, "beta");
  EXPECT_EQ(registry.get("gamma"), nullptr);
  const std::vector<std::string> names = registry.names();
  ASSERT_EQ(names.size(), 2U);
  EXPECT_EQ(names[0], "alpha");  // registration order, default first
  EXPECT_EQ(names[1], "beta");
}

TEST(ModelRegistry, SwapUnknownNameFailsWithoutTouchingAnyEntry) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.register_model("alpha", {make_model(1), 0, "", ""}, nullptr));
  std::string error;
  EXPECT_FALSE(registry.swap("gamma", "/nonexistent.pnm", &error));
  EXPECT_EQ(error, "unknown model name");
  const std::vector<ModelStats> stats = registry.stats();
  ASSERT_EQ(stats.size(), 1U);
  EXPECT_EQ(stats[0].version, 1U);
  EXPECT_EQ(stats[0].swaps_failed, 0U);  // failure attributed to no model
}

TEST(ModelRegistryServer, EmptyNameRoutesToDefaultModelAndNamesRouteByName) {
  Server server({}, make_registry_ab(21, 22));
  server.start();

  const QuantizedMlp ref_a = make_model(21);
  const QuantizedMlp ref_b = make_model(22);
  const auto samples = make_samples(24, 6, 31);
  InferScratch scratch;

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  PredictResponse resp;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // The empty name and the name "alpha" must both agree with offline
    // alpha; a frame naming beta must agree with offline beta.
    ASSERT_TRUE(client.send_predict(static_cast<std::uint32_t>(i), samples[i]));
    ASSERT_TRUE(client.read_predict(resp));
    EXPECT_EQ(resp.predicted_class, offline_predict(ref_a, samples[i], scratch));
    EXPECT_EQ(resp.model_version, 1U);

    ASSERT_TRUE(client.send_predict(static_cast<std::uint32_t>(i), samples[i], "alpha"));
    ASSERT_TRUE(client.read_predict(resp));
    EXPECT_EQ(resp.predicted_class, offline_predict(ref_a, samples[i], scratch));

    ASSERT_TRUE(client.send_predict(static_cast<std::uint32_t>(i), samples[i], "beta"));
    ASSERT_TRUE(client.read_predict(resp));
    EXPECT_EQ(resp.predicted_class, offline_predict(ref_b, samples[i], scratch));
    EXPECT_EQ(resp.model_version, 1U);  // beta's own version sequence
  }
  server.stop();
}

TEST(ModelRegistryServer, UnknownModelNameGetsTypedErrorAndConnectionSurvives) {
  Server server({}, make_registry_ab(23, 24));
  server.start();

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const auto samples = make_samples(2, 6, 32);

  ASSERT_TRUE(client.send_predict(5, samples[0], "gamma"));
  std::string message;
  EXPECT_EQ(read_error(client, &message), ErrorCode::kUnknownModel);
  EXPECT_NE(message.find("gamma"), std::string::npos);

  // The connection keeps serving: the very next valid request is answered.
  ASSERT_TRUE(client.send_predict(6, samples[1], "beta"));
  PredictResponse resp;
  ASSERT_TRUE(client.read_predict(resp));
  EXPECT_EQ(resp.id, 6U);

  // The reject is counted on its own — NOT as an admitted request, so the
  // responses/requests identity stays exact.
  ASSERT_TRUE(wait_for_stats(server, [](const MetricsSnapshot& s) {
    return s.unknown_model == 1 && s.responses_total == 1;
  }));
  EXPECT_EQ(server.stats().requests_total, 1U);
  EXPECT_EQ(server.stats().connections_closed, 0U);
  server.stop();
}

TEST(ModelRegistryServer, PerModelSwapIsolation) {
  const QuantizedMlp alpha_v2 = make_model(27);
  const std::string path = ::testing::TempDir() + "pnm_registry_swap_alpha.pnm";
  ASSERT_TRUE(save_quantized_mlp(alpha_v2, path, "alpha-v2"));

  auto registry = make_registry_ab(25, 26);
  Server server({}, registry);
  server.start();

  ServeClient admin;
  ASSERT_TRUE(admin.connect("127.0.0.1", server.port()));
  std::string message;
  ASSERT_TRUE(admin.swap("alpha", path, message));
  EXPECT_NE(message.find("version 2"), std::string::npos);

  // Swapping alpha moved alpha's version and nobody else's.
  EXPECT_EQ(registry->get("alpha")->version, 2U);
  EXPECT_EQ(registry->get("beta")->version, 1U);
  const std::vector<ModelStats> stats = registry->stats();
  ASSERT_EQ(stats.size(), 2U);
  EXPECT_EQ(stats[0].swaps_ok, 1U);
  EXPECT_EQ(stats[1].swaps_ok, 0U);

  // Responses reflect the isolation: alpha serves version 2 (bit-exact
  // against the new design), beta still serves its version 1.
  const auto samples = make_samples(4, 6, 33);
  InferScratch scratch;
  PredictResponse resp;
  const QuantizedMlp ref_b = make_model(26);
  for (const auto& s : samples) {
    ASSERT_TRUE(admin.send_predict(0, s, "alpha"));
    ASSERT_TRUE(admin.read_predict(resp));
    EXPECT_EQ(resp.model_version, 2U);
    EXPECT_EQ(resp.predicted_class, offline_predict(alpha_v2, s, scratch));
    ASSERT_TRUE(admin.send_predict(1, s, "beta"));
    ASSERT_TRUE(admin.read_predict(resp));
    EXPECT_EQ(resp.model_version, 1U);
    EXPECT_EQ(resp.predicted_class, offline_predict(ref_b, s, scratch));
  }

  // Swapping a name the registry has never seen is refused over the wire.
  EXPECT_FALSE(admin.swap("gamma", path, message));
  EXPECT_NE(message.find("unknown model"), std::string::npos);
  server.stop();
  std::remove(path.c_str());
}

TEST(ModelRegistryServer, TwoReactorLoadgenTotalsReconcileWithServerStats) {
  ServeConfig config;
  config.reactors = 2;
  Server server(config, make_registry_ab(28, 29));
  server.start();

  const QuantizedMlp ref_a = make_model(28);
  const QuantizedMlp ref_b = make_model(29);
  const auto samples_a = make_samples(16, 6, 34);
  const auto samples_b = make_samples(16, 6, 35);
  const std::size_t per_gen = 300;

  // Two concurrent loadgens: empty-name frames against the default model,
  // named frames against beta — their connections land on whichever
  // reactor the kernel picked, and every response is verified bit-exactly
  // per model.
  LoadGenConfig load_a;
  load_a.port = server.port();
  load_a.rate = 4000.0;
  load_a.total_requests = per_gen;
  load_a.samples = &samples_a;
  load_a.verify[1] = &ref_a;

  LoadGenConfig load_b = load_a;
  load_b.model_name = "beta";
  load_b.samples = &samples_b;
  load_b.verify.clear();
  load_b.verify[1] = &ref_b;

  LoadGenReport report_a;
  LoadGenReport report_b;
  std::thread gen_a([&] { report_a = run_load(load_a); });
  std::thread gen_b([&] { report_b = run_load(load_b); });
  gen_a.join();
  gen_b.join();
  EXPECT_TRUE(report_a.ok()) << "alpha gen: received=" << report_a.received
                             << " mismatches=" << report_a.mismatches;
  EXPECT_TRUE(report_b.ok()) << "beta gen: received=" << report_b.received
                             << " mismatches=" << report_b.mismatches;

  // Reconcile client-side totals with the aggregated server snapshot.
  ASSERT_TRUE(wait_for_stats(server, [&](const MetricsSnapshot& s) {
    return s.responses_total == 2 * per_gen;
  }));
  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.requests_total, 2 * per_gen);
  ASSERT_EQ(stats.requests_by_reactor.size(), 2U);
  EXPECT_EQ(stats.requests_by_reactor[0] + stats.requests_by_reactor[1],
            stats.requests_total);  // per-reactor admissions cover the total
  ASSERT_EQ(stats.models.size(), 2U);
  EXPECT_EQ(stats.models[0].name, "alpha");
  EXPECT_EQ(stats.models[0].responses, report_a.received);
  EXPECT_EQ(stats.models[1].name, "beta");
  EXPECT_EQ(stats.models[1].responses, report_b.received);
  EXPECT_EQ(stats.models[0].responses + stats.models[1].responses + stats.predict_errors,
            stats.responses_total);  // per-model responses cover the total
  EXPECT_EQ(stats.predict_errors, 0U);
  EXPECT_EQ(stats.unknown_model, 0U);
  server.stop();
}

TEST(ModelRegistryServer, StatsJsonCarriesReactorAndModelBreakdown) {
  ServeConfig config;
  config.reactors = 2;
  Server server(config, make_registry_ab(30, 31));
  server.start();

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  std::string json;
  ASSERT_TRUE(client.stats(json));
  EXPECT_NE(json.find("\"reactors\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"requests_by_reactor\": ["), std::string::npos);
  EXPECT_NE(json.find("\"unknown_model\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"models\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"beta\""), std::string::npos);
  // One line per model: the CI soaks grep a model's name and version.
  EXPECT_NE(json.find("\"name\": \"alpha\", \"version\": 1"), std::string::npos);
  EXPECT_EQ(json.find("model_version"), std::string::npos);
  EXPECT_NE(json.find("\"swaps_failed\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_responses\": 0"), std::string::npos);
  server.stop();
}

}  // namespace
}  // namespace pnm::serve

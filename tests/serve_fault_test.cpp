/// Fault-injection suite for the multi-reactor server: slowloris senders
/// (one byte per write), mid-frame disconnects under live load, poisoned
/// and oversized frames hammering one reactor while siblings keep
/// serving, and hot-swap storms racing routed batches.  Every scenario
/// asserts both that the abuse is survived AND that concurrent honest
/// traffic stays bit-exact — the point of the fault layer is that
/// misbehaving clients cost the server nothing but their own connection.
///
/// All iteration counts and sleeps scale with
/// build_info::timing_multiplier() so the suite stays meaningful under
/// sanitizers.

#include "pnm/serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "pnm/core/model_io.hpp"
#include "pnm/serve/client.hpp"
#include "pnm/util/build_info.hpp"

#include "serve_test_util.hpp"

namespace pnm::serve {
namespace {

TEST(ServeFault, SlowlorisClientIsServedEventuallyWithoutBlockingOthers) {
  Server server({}, {make_model(51), 0, "", ""});
  server.start();

  const QuantizedMlp ref = make_model(51);
  const auto samples = make_samples(8, 6, 61);
  InferScratch scratch;

  // The slowloris connection trickles one valid predict frame a byte at a
  // time.  The reactor must buffer the partial frame without stalling —
  // a blocking read of the slow connection would freeze everyone.
  ServeClient slow;
  ASSERT_TRUE(slow.connect("127.0.0.1", server.port()));
  std::vector<std::uint8_t> frame;
  encode_predict(frame, 99, samples[0]);

  std::atomic<bool> trickle_done{false};
  std::thread trickler([&] {
    for (const std::uint8_t byte : frame) {
      if (!slow.send_raw(&byte, 1)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    trickle_done.store(true, std::memory_order_release);
  });

  // Meanwhile a healthy client gets every answer promptly and bit-exactly.
  ServeClient healthy;
  ASSERT_TRUE(healthy.connect("127.0.0.1", server.port()));
  PredictResponse resp;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(healthy.send_predict(static_cast<std::uint32_t>(i), samples[i]));
    ASSERT_TRUE(healthy.read_predict(resp));
    EXPECT_EQ(resp.id, i);
    EXPECT_EQ(resp.predicted_class, offline_predict(ref, samples[i], scratch));
  }

  // Once the last byte lands, the slowloris request is answered too —
  // same bits as offline.
  ASSERT_TRUE(slow.read_predict(resp, 20000 * pnm::build_info::timing_multiplier()));
  EXPECT_EQ(resp.id, 99U);
  EXPECT_EQ(resp.predicted_class, offline_predict(ref, samples[0], scratch));
  trickler.join();
  EXPECT_TRUE(trickle_done.load());
  server.stop();
}

TEST(ServeFault, MidFrameDisconnectsUnderLoadLeaveCleanTrafficIntact) {
  ServeConfig config;
  config.reactors = 2;
  Server server(config, {make_model(52), 0, "", ""});
  server.start();

  const QuantizedMlp ref = make_model(52);
  const auto samples = make_samples(12, 6, 62);

  // Clean load runs throughout...
  LoadGenConfig load;
  load.port = server.port();
  load.rate = 2000.0;
  load.total_requests = 250;
  load.samples = &samples;
  load.verify[1] = &ref;
  LoadGenReport report;
  std::thread gen([&] { report = run_load(load); });

  // ...while a churn thread opens connections, sends a deliberately
  // incomplete frame, and vanishes.  Each one must be torn down as a
  // truncated frame without disturbing the loadgen.
  const int kDisconnects = 8 * pnm::build_info::timing_multiplier();
  int attempted = 0;
  for (int i = 0; i < kDisconnects; ++i) {
    ServeClient flaky;
    if (!flaky.connect("127.0.0.1", server.port())) continue;
    std::vector<std::uint8_t> frame;
    encode_predict(frame, 7, samples[0]);
    // Half the frame, then an abrupt close (destructor).
    if (flaky.send_raw(frame.data(), frame.size() / 2)) ++attempted;
    flaky.close();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  gen.join();

  EXPECT_TRUE(report.ok()) << "received=" << report.received
                           << " mismatches=" << report.mismatches;
  ASSERT_GT(attempted, 0);
  // Every abrupt mid-frame close is observed and counted.
  ASSERT_TRUE(wait_for_stats(server, [&](const MetricsSnapshot& s) {
    return s.truncated_frames >= static_cast<std::uint64_t>(attempted);
  }));
  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.responses_total, load.total_requests);
  EXPECT_EQ(stats.dropped_responses, 0U);
  server.stop();
}

TEST(ServeFault, PoisonedFramesOnOneReactorWhileOthersServe) {
  ServeConfig config;
  config.reactors = 2;
  Server server(config, {make_model(53), 0, "", ""});
  server.start();

  const QuantizedMlp ref = make_model(53);
  const auto samples = make_samples(12, 6, 63);

  LoadGenConfig load;
  load.port = server.port();
  load.rate = 2000.0;
  load.total_requests = 250;
  load.samples = &samples;
  load.verify[1] = &ref;
  LoadGenReport report;
  std::thread gen([&] { report = run_load(load); });

  // Poison senders: whichever reactor the kernel hashes them onto gets
  // oversized declarations, zero-length frames, unknown types, and
  // predict frames with lying name lengths.  Each earns a close and a
  // counter bump; none may leak into the prediction path.
  std::uint64_t oversized_sent = 0;
  std::uint64_t poisoned_sent = 0;
  const int kRounds = 4 * pnm::build_info::timing_multiplier();
  for (int round = 0; round < kRounds; ++round) {
    {
      ServeClient attacker;
      ASSERT_TRUE(attacker.connect("127.0.0.1", server.port()));
      std::vector<std::uint8_t> huge;
      append_u32(huge, 64U << 20);  // 64 MiB declared, nothing behind it
      ASSERT_TRUE(attacker.send_raw(huge.data(), huge.size()));
      ++oversized_sent;
    }
    {
      ServeClient attacker;
      ASSERT_TRUE(attacker.connect("127.0.0.1", server.port()));
      const std::uint8_t zero[4] = {0, 0, 0, 0};
      ASSERT_TRUE(attacker.send_raw(zero, 4));
      ++oversized_sent;  // zero length is the same framing violation
    }
    {
      ServeClient attacker;
      ASSERT_TRUE(attacker.connect("127.0.0.1", server.port()));
      // Well-framed but an unknown type tag.
      const std::uint8_t junk[6] = {2, 0, 0, 0, 0xEE, 0xEE};
      ASSERT_TRUE(attacker.send_raw(junk, 6));
      ++poisoned_sent;
    }
    {
      ServeClient attacker;
      ASSERT_TRUE(attacker.connect("127.0.0.1", server.port()));
      // kPredict whose name length points past the payload end.
      std::vector<std::uint8_t> lying;
      encode_predict(lying, 1, samples[0], "m");
      lying[9] = 255;  // name_len byte (after u32 len, u8 type, u32 id)
      ASSERT_TRUE(attacker.send_raw(lying.data(), lying.size()));
      ++poisoned_sent;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  gen.join();

  EXPECT_TRUE(report.ok()) << "received=" << report.received
                           << " mismatches=" << report.mismatches;
  ASSERT_TRUE(wait_for_stats(server, [&](const MetricsSnapshot& s) {
    return s.oversized_rejected >= oversized_sent &&
           s.protocol_errors >= poisoned_sent;
  }));
  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.responses_total, load.total_requests);
  EXPECT_EQ(stats.predict_errors, 0U);
  server.stop();
}

TEST(ServeFault, SwapStormDuringRoutedLoadPreservesPerModelIsolation) {
  // Two models; the default ("alpha") is swapped back and forth under
  // live load while "beta" serves a concurrent loadgen.  Alpha's verify
  // map pins every version to the design that must have produced it;
  // beta verifying ONLY version 1 proves the storm never touched it.
  const QuantizedMlp alpha_v1 = make_model(54);
  const QuantizedMlp alpha_alt = make_model(55);
  const QuantizedMlp beta_ref = make_model(56);

  const std::string path_a = ::testing::TempDir() + "pnm_fault_swap_a.pnm";
  const std::string path_alt = ::testing::TempDir() + "pnm_fault_swap_alt.pnm";
  ASSERT_TRUE(save_quantized_mlp(alpha_v1, path_a, "a"));
  ASSERT_TRUE(save_quantized_mlp(alpha_alt, path_alt, "a-alt"));

  ServeConfig config;
  config.reactors = 2;
  Server server(config, make_registry_ab(54, 56));
  server.start();

  const auto samples_a = make_samples(12, 6, 64);
  const auto samples_b = make_samples(12, 6, 65);

  // Alpha loadgen: 4 swaps interleaved with the load.  Versions alternate
  // alt/original, each bit-exact for the design behind it.
  LoadGenConfig load_a;
  load_a.port = server.port();
  load_a.rate = 1500.0;
  load_a.total_requests = 300;
  load_a.samples = &samples_a;
  load_a.swaps = {{60, path_alt}, {120, path_a}, {180, path_alt}, {240, path_a}};
  load_a.verify[1] = &alpha_v1;
  load_a.verify[2] = &alpha_alt;
  load_a.verify[3] = &alpha_v1;
  load_a.verify[4] = &alpha_alt;
  load_a.verify[5] = &alpha_v1;

  LoadGenConfig load_b;
  load_b.port = server.port();
  load_b.rate = 1500.0;
  load_b.total_requests = 300;
  load_b.samples = &samples_b;
  load_b.model_name = "beta";
  load_b.verify[1] = &beta_ref;  // ONLY v1: any other version is a failure

  LoadGenReport report_a;
  LoadGenReport report_b;
  std::thread gen_a([&] { report_a = run_load(load_a); });
  std::thread gen_b([&] { report_b = run_load(load_b); });
  gen_a.join();
  gen_b.join();

  EXPECT_TRUE(report_a.ok()) << "alpha: received=" << report_a.received
                             << " mismatches=" << report_a.mismatches
                             << " unknown_version=" << report_a.unknown_version
                             << " swap_failures=" << report_a.swap_failures;
  EXPECT_TRUE(report_b.ok()) << "beta: received=" << report_b.received
                             << " mismatches=" << report_b.mismatches
                             << " unknown_version=" << report_b.unknown_version;
  // Beta saw exactly one version across the whole storm.
  ASSERT_EQ(report_b.responses_by_version.size(), 1U);
  EXPECT_EQ(report_b.responses_by_version.begin()->first, 1U);

  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.swaps_ok, 4U);
  EXPECT_EQ(stats.swaps_failed, 0U);
  ASSERT_EQ(stats.models.size(), 2U);
  EXPECT_EQ(stats.models[0].version, 5U);   // alpha: 1 + 4 swaps
  EXPECT_EQ(stats.models[1].version, 1U);   // beta: untouched
  EXPECT_EQ(stats.models[0].responses, report_a.received);
  EXPECT_EQ(stats.models[1].responses, report_b.received);
  EXPECT_EQ(stats.dropped_responses, 0U);

  server.stop();
  std::remove(path_a.c_str());
  std::remove(path_alt.c_str());
}

}  // namespace
}  // namespace pnm::serve

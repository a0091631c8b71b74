/// End-to-end tests for the serving layer over real loopback TCP:
/// bit-exactness against the offline engine, micro-batch coalescing,
/// hot-swap under load (version-tagged verification), protocol abuse
/// (truncated / oversized / unknown / malformed frames, each closing its
/// connection with a typed error; width mismatches, which keep it; client
/// disconnects), observability counters, the zero-steady-state-
/// allocation property of the request pool, serving from a single CPU,
/// and the start/stop lifecycle (a stopped server refuses to restart; a
/// taken port fails start()).

#include "pnm/serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sched.h>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "pnm/core/model_io.hpp"
#include "pnm/serve/client.hpp"
#include "pnm/util/fileio.hpp"
#include "pnm/util/socket.hpp"

#include "serve_test_util.hpp"

namespace pnm::serve {
namespace {

TEST(ServeServer, ServesBitExactPredictions) {
  Server server({}, {make_model(1), 0, "", ""});
  server.start();

  const auto samples = make_samples(60, 6, 11);
  const QuantizedMlp reference = make_model(1);
  InferScratch scratch;

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(client.send_predict(static_cast<std::uint32_t>(i), samples[i]));
    PredictResponse resp;
    ASSERT_TRUE(client.read_predict(resp));
    EXPECT_EQ(resp.id, i);
    EXPECT_EQ(resp.model_version, 1U);
    EXPECT_EQ(resp.predicted_class, offline_predict(reference, samples[i], scratch));
  }

  // Workers count every response before writing it, so once the client
  // holds the last response the counters already include it.
  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.requests_total, samples.size());
  EXPECT_EQ(stats.responses_total, samples.size());
  EXPECT_EQ(stats.models.at(0).version, 1U);
  server.stop();
}

TEST(ServeServer, ServesBitExactlyPinnedToOneCpu) {
  // Threads inherit the affinity of the thread that creates them, so a
  // server started from a thread pinned to one CPU runs on that CPU
  // alone, where a reactor blocks as soon as it is idle instead of
  // polling first.
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  struct Restore {
    const cpu_set_t& mask;
    ~Restore() { sched_setaffinity(0, sizeof mask, &mask); }
  } restore{saved};

  Server server({}, {make_model(2), 0, "", ""});
  server.start();
  const auto samples = make_samples(200, 6, 13);
  const QuantizedMlp reference = make_model(2);
  InferScratch scratch;
  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  // Pipelined (blocked batches), then one at a time (single-sample
  // batches, each answered through a hand-off to a blocked reactor).
  for (std::uint32_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(client.send_predict(i, samples[i]));
  }
  PredictResponse resp;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    ASSERT_TRUE(client.read_predict(resp));
    ASSERT_LT(resp.id, samples.size());
    EXPECT_EQ(resp.predicted_class, offline_predict(reference, samples[resp.id], scratch));
  }
  for (std::uint32_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.send_predict(i, samples[i]));
    ASSERT_TRUE(client.read_predict(resp));
    EXPECT_EQ(resp.id, i);
    EXPECT_EQ(resp.predicted_class, offline_predict(reference, samples[i], scratch));
  }
  EXPECT_EQ(server.stats().responses_total, samples.size() + 20);
  server.stop();
}

TEST(ServeServer, ObservabilityCountersAreConsistent) {
  ServeConfig config;
  config.batch_max = 8;
  config.batch_deadline_us = 2000;
  Server server(config, {make_model(2), 0, "", ""});
  server.start();

  const auto samples = make_samples(40, 6, 12);
  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  // Pipeline everything, then collect: gives the batcher a chance to
  // coalesce (the exact batch sizes are timing-dependent; the accounting
  // identities below are not).
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(client.send_predict(static_cast<std::uint32_t>(i), samples[i]));
  }
  PredictResponse resp;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(client.read_predict(resp));
  }

  // No polling: workers bump every counter before the write that carries
  // a response, so the snapshot taken right after the last read must
  // already balance.  A poll here would hide a regression of that rule.
  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.requests_total, samples.size());
  EXPECT_EQ(stats.responses_total, samples.size());
  ASSERT_EQ(stats.batch_size_hist.size(), config.batch_max + 1);
  std::uint64_t batches = 0;
  std::uint64_t responses = 0;
  for (std::size_t s = 1; s < stats.batch_size_hist.size(); ++s) {
    batches += stats.batch_size_hist[s];
    responses += stats.batch_size_hist[s] * s;
  }
  EXPECT_EQ(batches, stats.batches_total);      // histogram covers every batch
  EXPECT_EQ(responses, stats.responses_total);  // ...and every response
  EXPECT_GE(stats.mean_batch_size(), 1.0);
  EXPECT_GT(stats.latency_percentile_us(50), 0.0);
  EXPECT_GE(stats.latency_percentile_us(99), stats.latency_percentile_us(50));
  EXPECT_EQ(stats.queue_depth, 0U);  // drained
  // One connection: each batch answers it with one write.
  EXPECT_GE(stats.response_writes, 1U);
  EXPECT_LE(stats.response_writes, stats.batches_total);

  // The same numbers over the admin endpoint.
  std::string json;
  ASSERT_TRUE(client.stats(json));
  EXPECT_NE(json.find("\"requests_total\": 40"), std::string::npos);
  EXPECT_NE(json.find("\"response_writes\": " + std::to_string(stats.response_writes)),
            std::string::npos);
  EXPECT_NE(json.find("\"latency_p50_us\":"), std::string::npos);
  EXPECT_NE(json.find("\"batch_size_hist\":"), std::string::npos);
  EXPECT_NE(json.find("\"queue_depth\":"), std::string::npos);
  server.stop();
}

TEST(ServeServer, HotSwapUnderLoadIsBitExactAndLossless) {
  const QuantizedMlp model_a = make_model(3);
  const QuantizedMlp model_b = make_model(4);
  const std::string path_a = ::testing::TempDir() + "pnm_serve_swap_a.pnm";
  const std::string path_b = ::testing::TempDir() + "pnm_serve_swap_b.pnm";
  ASSERT_TRUE(save_quantized_mlp(model_a, path_a, "a"));
  ASSERT_TRUE(save_quantized_mlp(model_b, path_b, "b"));

  ServeConfig config;
  config.worker_threads = 2;
  Server server(config, {make_model(3), 0, path_a, ""});
  server.start();

  const auto samples = make_samples(32, 6, 13);
  LoadGenConfig load;
  load.port = server.port();
  load.rate = 3000.0;
  load.total_requests = 360;
  load.samples = &samples;
  load.swaps[100] = path_b;  // version 2
  load.swaps[220] = path_a;  // version 3
  load.verify[1] = &model_a;
  load.verify[2] = &model_b;
  load.verify[3] = &model_a;

  const LoadGenReport report = run_load(load);
  EXPECT_TRUE(report.ok()) << "sent=" << report.sent << " received=" << report.received
                           << " mismatches=" << report.mismatches
                           << " unknown=" << report.unknown_version
                           << " send_failures=" << report.send_failures
                           << " swap_failures=" << report.swap_failures;
  EXPECT_EQ(report.received, load.total_requests);
  EXPECT_GE(report.responses_by_version.size(), 2U);  // the swap landed mid-stream

  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.swaps_ok, 2U);
  ASSERT_EQ(stats.models.size(), 1U);
  EXPECT_EQ(stats.models[0].version, 3U);
  EXPECT_EQ(stats.models[0].path, path_a);
  server.stop();
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(ServeServer, SwapToCorruptFileIsRejectedAndKeepsServing) {
  const std::string bad_path = ::testing::TempDir() + "pnm_serve_swap_bad.pnm";
  ASSERT_TRUE(write_text_file_atomic(bad_path, "pnm-model v1\nname x\ngarbage\n"));

  Server server({}, {make_model(5), 0, "", ""});
  server.start();

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  std::string message;
  EXPECT_FALSE(client.swap("", bad_path, message));
  EXPECT_FALSE(message.empty());
  EXPECT_FALSE(client.swap("", ::testing::TempDir() + "pnm_serve_no_such_file.pnm", message));

  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.swaps_failed, 2U);
  EXPECT_EQ(stats.swaps_ok, 0U);
  EXPECT_EQ(stats.models.at(0).version, 1U);  // old design kept serving

  // ...and it really does keep serving, bit-exactly.
  const auto samples = make_samples(5, 6, 14);
  const QuantizedMlp reference = make_model(5);
  InferScratch scratch;
  PredictResponse resp;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(client.send_predict(static_cast<std::uint32_t>(i), samples[i]));
    ASSERT_TRUE(client.read_predict(resp));
    EXPECT_EQ(resp.model_version, 1U);
    EXPECT_EQ(resp.predicted_class, offline_predict(reference, samples[i], scratch));
  }
  server.stop();
  std::remove(bad_path.c_str());
}

TEST(ServeServer, TruncatedFrameIsCountedOnDisconnect) {
  Server server({}, {make_model(6), 0, "", ""});
  server.start();

  {
    ServeClient client;
    ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
    std::vector<std::uint8_t> frame;
    encode_predict(frame, 1, std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5, 0.6});
    ASSERT_TRUE(client.send_raw(frame.data(), frame.size() - 3));  // cut short
    client.close();  // disconnect mid-frame
  }
  EXPECT_TRUE(wait_for_stats(
      server, [](const MetricsSnapshot& s) { return s.truncated_frames == 1; }));

  // The server shrugs it off: a fresh client is served normally.
  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const auto samples = make_samples(1, 6, 15);
  ASSERT_TRUE(client.send_predict(0, samples[0]));
  PredictResponse resp;
  EXPECT_TRUE(client.read_predict(resp));
  server.stop();
}

TEST(ServeServer, OversizedFrameGetsErrorAndDisconnect) {
  ServeConfig config;
  config.max_frame_bytes = 1 << 10;
  Server server(config, {make_model(7), 0, "", ""});
  server.start();

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  std::vector<std::uint8_t> header;
  append_u32(header, 1 << 20);  // over the 1 KiB cap
  ASSERT_TRUE(client.send_raw(header.data(), header.size()));

  EXPECT_EQ(read_error(client), ErrorCode::kMalformedFrame);
  // Server closes the connection after the error frame.
  ClientFrame frame;
  EXPECT_FALSE(client.read_frame(frame, 2000));
  EXPECT_TRUE(wait_for_stats(server, [](const MetricsSnapshot& s) {
    return s.oversized_rejected == 1 && s.connections_closed == 1;
  }));
  server.stop();
}

/// Sends `bytes` on a fresh connection and expects kError{kMalformedFrame}
/// followed by the server closing that connection.
void expect_malformed_closes(Server& server, const std::vector<std::uint8_t>& bytes) {
  const std::uint64_t closed = server.stats().connections_closed;
  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.send_raw(bytes.data(), bytes.size()));
  EXPECT_EQ(read_error(client), ErrorCode::kMalformedFrame);
  // The client is still open, so only a server-side close can count here.
  EXPECT_TRUE(wait_for_stats(server, [&](const MetricsSnapshot& s) {
    return s.connections_closed == closed + 1;
  }));
}

TEST(ServeServer, UnknownFrameTypeGetsErrorAndDisconnect) {
  Server server({}, {make_model(8), 0, "", ""});
  server.start();

  // Only tags 1-7 are frame types.
  for (const std::uint8_t tag : {8, 9, 10, 99}) {
    SCOPED_TRACE(static_cast<int>(tag));
    std::vector<std::uint8_t> raw;
    append_u32(raw, 3);
    raw.push_back(tag);
    raw.push_back(0);
    raw.push_back(0);
    expect_malformed_closes(server, raw);
  }
  EXPECT_EQ(server.stats().protocol_errors, 4U);
  server.stop();
}

TEST(ServeServer, MalformedPayloadGetsErrorAndDisconnect) {
  Server server({}, {make_model(11), 0, "", ""});
  server.start();

  const auto samples = make_samples(1, 6, 19);
  std::vector<std::uint8_t> lying_predict;
  encode_predict(lying_predict, 1, samples[0], "m");
  lying_predict[9] = 255;  // name length (after u32 len, u8 type, u32 id) overruns
  encode_predict(lying_predict, 2, samples[0]);  // valid, but after the violation
  expect_malformed_closes(server, lying_predict);

  std::vector<std::uint8_t> nameless_swap;
  encode_payload_frame(nameless_swap, FrameType::kSwap, {});  // no name-length byte
  expect_malformed_closes(server, nameless_swap);

  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 2U);
  EXPECT_EQ(stats.requests_total, 0U);  // nothing after a violation is admitted
  EXPECT_EQ(stats.swaps_failed, 0U);
  server.stop();
}

TEST(ServeServer, PredictsBeforeAViolationInOneReadAreAnswered) {
  Server server({}, {make_model(16), 0, "", ""});
  server.start();

  // One send: two valid predicts, then a predict whose name length lies.
  const auto samples = make_samples(3, 6, 20);
  std::vector<std::uint8_t> bytes;
  encode_predict(bytes, 1, samples[0]);
  encode_predict(bytes, 2, samples[1]);
  const std::size_t lying = bytes.size();
  encode_predict(bytes, 3, samples[2], "m");
  bytes[lying + 9] = 255;  // name length (after u32 len, u8 type, u32 id) overruns
  expect_malformed_closes(server, bytes);

  // The two predicts decoded before the violation were admitted and
  // answered (delivered, or counted as dropped once the connection closed).
  EXPECT_TRUE(wait_for_stats(server, [](const MetricsSnapshot& s) {
    return s.requests_total == 2 && s.responses_total == 2 && s.queue_depth == 0;
  }));
  EXPECT_EQ(server.stats().protocol_errors, 1U);
  server.stop();
}

TEST(ServeServer, FeatureWidthMismatchIsAnErrorNotACrash) {
  Server server({}, {make_model(9), 0, "", ""});  // expects 6 features
  server.start();

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.send_predict(0, std::vector<double>{0.5, 0.5}));  // 2 != 6
  EXPECT_EQ(read_error(client), ErrorCode::kWidthMismatch);
  EXPECT_TRUE(wait_for_stats(
      server, [](const MetricsSnapshot& s) { return s.predict_errors == 1; }));

  // The connection survives a width mismatch (it is a request-level
  // error, not a framing violation) — the next valid request is served.
  const auto samples = make_samples(1, 6, 16);
  ASSERT_TRUE(client.send_predict(1, samples[0]));
  PredictResponse resp;
  EXPECT_TRUE(client.read_predict(resp));
  EXPECT_EQ(resp.id, 1U);
  EXPECT_EQ(server.stats().connections_closed, 0U);
  server.stop();
}

// Any client can send non-finite or out-of-range features.  Each has a
// defined input code — NaN and everything below 0 encode as 0, everything
// above 1 as the top code — so the response is the offline prediction of
// those codes, on the blocked path and the single-sample path alike.
TEST(ServeServer, NonFiniteFeaturesAreServedTheirDefinedCodes) {
  ServeConfig config;
  config.batch_deadline_us = 20000;  // let the pipelined rotations share a batch
  Server server(config, {make_model(17), 0, "", ""});
  server.start();

  const QuantizedMlp reference = make_model(17);
  ASSERT_EQ(reference.input_bits(), 4);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> odd = {nan, inf, -inf, -3.0, 42.0, -nan};
  const std::vector<std::int64_t> codes = {0, 15, 0, 0, 15, 0};

  InferScratch scratch;
  const auto rotated = [](auto v, std::uint32_t id) {
    std::rotate(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(id % v.size()), v.end());
    return v;
  };
  const auto expected = [&](std::uint32_t id) {
    return reference.predict_quantized_into(rotated(codes, id), scratch);
  };

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  // Every rotation pipelined (a blocked batch), then one alone (the
  // single-sample path).
  PredictResponse resp;
  for (std::uint32_t id = 0; id < odd.size(); ++id) {
    ASSERT_TRUE(client.send_predict(id, rotated(odd, id)));
  }
  for (std::size_t k = 0; k < odd.size(); ++k) {
    ASSERT_TRUE(client.read_predict(resp));
    EXPECT_EQ(resp.predicted_class, expected(resp.id)) << "request " << resp.id;
  }
  const auto lone = static_cast<std::uint32_t>(odd.size() + 1);
  ASSERT_TRUE(client.send_predict(lone, rotated(odd, lone)));
  ASSERT_TRUE(client.read_predict(resp));
  EXPECT_EQ(resp.id, lone);
  EXPECT_EQ(resp.predicted_class, expected(lone));
  EXPECT_EQ(server.stats().predict_errors, 0U);
  server.stop();
}

TEST(ServeServer, ClientDisconnectMidFlightLeavesServerHealthy) {
  ServeConfig config;
  config.batch_deadline_us = 20000;  // give the vanishing client time to vanish
  Server server(config, {make_model(10), 0, "", ""});
  server.start();

  const auto samples = make_samples(8, 6, 17);
  {
    ServeClient doomed;
    ASSERT_TRUE(doomed.connect("127.0.0.1", server.port()));
    for (std::size_t i = 0; i < samples.size(); ++i) {
      ASSERT_TRUE(doomed.send_predict(static_cast<std::uint32_t>(i), samples[i]));
    }
    doomed.close();  // gone before the batch departs
  }
  // All admitted requests are still processed (responses may be dropped,
  // never wedged).
  EXPECT_TRUE(wait_for_stats(server, [&](const MetricsSnapshot& s) {
    return s.responses_total == samples.size();
  }));

  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  ASSERT_TRUE(client.send_predict(0, samples[0]));
  PredictResponse resp;
  EXPECT_TRUE(client.read_predict(resp));
  server.stop();
}

TEST(ServeServer, RequestPoolStopsGrowingAtSteadyState) {
  Server server({}, {make_model(12), 0, "", ""});
  server.start();

  const auto samples = make_samples(4, 6, 18);
  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  PredictResponse resp;

  // Warm-up: one strictly sequential pass sizes the pool.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client.send_predict(static_cast<std::uint32_t>(i), samples[i % 4]));
    ASSERT_TRUE(client.read_predict(resp));
  }
  const std::size_t warm = server.request_pool_created();
  EXPECT_GE(warm, 1U);

  // Steady state: the pool is bounded by peak concurrent demand, not by
  // request count.  A worker recycles its batch before it writes the
  // responses, so each request of one synchronous client is back in the
  // pool before the client can send the next: the pool does not grow at
  // all.  The looser bound keeps the slack this test has always allowed
  // (one live request plus one per worker); 200 more requests must not
  // grow the pool past it by a single object.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client.send_predict(static_cast<std::uint32_t>(i), samples[i % 4]));
    ASSERT_TRUE(client.read_predict(resp));
  }
  EXPECT_EQ(server.request_pool_created(), warm);
  EXPECT_LE(server.request_pool_created(), 1 + ServeConfig{}.worker_threads);
  server.stop();
}

TEST(ServeServer, StartStopIsIdempotent) {
  Server server({}, {make_model(13), 0, "", ""});
  server.start();
  const std::uint16_t port = server.port();
  EXPECT_NE(port, 0);
  server.stop();
  server.stop();  // idempotent

  // A stopped server's port no longer accepts.
  ServeClient client;
  EXPECT_FALSE(client.connect("127.0.0.1", port, 2));
}

TEST(ServeServer, RestartAfterStopIsRefused) {
  // stop() shuts the admission queue down for good: a restarted server
  // would accept predicts that no worker ever answers.
  Server server({}, {make_model(14), 0, "", ""});
  server.start();
  server.stop();
  EXPECT_THROW(server.start(), std::logic_error);

  // Nothing came back up: the refused start bound no socket.
  ServeClient client;
  EXPECT_FALSE(client.connect("127.0.0.1", server.port(), 2));
}

TEST(ServeServer, StartOnATakenPortThrows) {
  const int taken = tcp_listen(0, true);
  ASSERT_GE(taken, 0);
  ServeConfig config;
  config.port = tcp_local_port(taken);
  {
    Server server(config, {make_model(15), 0, "", ""});
    EXPECT_THROW(server.start(), std::runtime_error);
  }  // destructs cleanly: nothing was left running

  // A failed start leaves the server startable once the port is free.
  Server server(config, {make_model(15), 0, "", ""});
  EXPECT_THROW(server.start(), std::runtime_error);
  ::close(taken);
  server.start();
  ServeClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", config.port));
  const auto samples = make_samples(1, 6, 16);
  ASSERT_TRUE(client.send_predict(1, samples[0]));
  PredictResponse resp;
  ASSERT_TRUE(client.read_predict(resp));
  EXPECT_EQ(resp.id, 1U);
  server.stop();
}

}  // namespace
}  // namespace pnm::serve

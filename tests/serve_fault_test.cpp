/// Fault-injection suite for the multi-reactor server: slowloris senders
/// (one byte per write), peers that send but never read, mid-frame
/// disconnects under live load, poisoned and oversized frames hammering
/// one reactor while siblings keep serving, and hot-swap storms racing
/// routed batches.  Every scenario
/// asserts both that the abuse is survived AND that concurrent honest
/// traffic stays bit-exact — the point of the fault layer is that
/// misbehaving clients cost the server nothing but their own connection.
///
/// All iteration counts and sleeps scale with
/// build_info::timing_multiplier() so the suite stays meaningful under
/// sanitizers.

#include "pnm/serve/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "pnm/core/model_io.hpp"
#include "pnm/serve/client.hpp"
#include "pnm/util/build_info.hpp"
#include "pnm/util/socket.hpp"

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

/// Connects a peer that will send but never read.  A tiny receive buffer
/// and segment size keep the kernel from absorbing much of the server's
/// output, so unread responses soon pile up on the server side.  Sends
/// time out after 100 ms, so a sender thread can notice it should stop.
int connect_stalled_reader(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int rcvbuf = 1024;
  const int mss = 536;
  const timeval send_timeout{0, 100000};
  setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  setsockopt(fd, IPPROTO_TCP, TCP_MAXSEG, &mss, sizeof mss);
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout, sizeof send_timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServeFault, StalledReadersCannotStallOtherClients) {
  const ServeConfig config;
  Server server(config, {make_model(57), 0, "", ""});
  server.start();

  const QuantizedMlp ref = make_model(57);
  const auto samples = make_samples(8, 6, 67);
  InferScratch scratch;
  ServeClient healthy;
  ASSERT_TRUE(healthy.connect("127.0.0.1", server.port()));

  // One more reader that never reads than there are workers: a server
  // whose workers write responses themselves parks every worker on a
  // full socket, and the healthy client waits for a stall timeout.  Each
  // stalled peer streams predicts (always whole frames) until the server
  // drops it.
  const std::size_t stalled_peers = config.worker_threads + 1;
  std::vector<std::uint8_t> burst;
  for (std::uint32_t i = 0; i < 512; ++i) encode_predict(burst, i, samples[i % samples.size()]);
  std::atomic<std::size_t> cut_off{0};
  std::vector<std::jthread> stalled;
  for (std::size_t k = 0; k < stalled_peers; ++k) {
    const int fd = connect_stalled_reader(server.port());
    ASSERT_GE(fd, 0);
    stalled.emplace_back([&, fd](const std::stop_token& stop) {
      std::size_t at = 0;  // stream offset within `burst`
      while (!stop.stop_requested()) {
        const ssize_t rc = ::send(fd, burst.data() + at, burst.size() - at, MSG_NOSIGNAL);
        if (rc > 0) {
          at = (at + static_cast<std::size_t>(rc)) % burst.size();
        } else if (rc == 0 || (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
          cut_off.fetch_add(1);  // the server closed this peer
          break;
        }
      }
      ::close(fd);
    });
  }

  // The healthy client is answered promptly, bit-exactly, the whole time
  // the stalled peers flood the server, each reply well inside the 2 s a
  // worker writing to a full socket would wait before giving up on it.
  const int prompt_ms = 1000 * pnm::build_info::timing_multiplier();
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(20 * pnm::build_info::timing_multiplier());
  std::uint32_t served = 0;
  while ((cut_off.load() < stalled_peers && std::chrono::steady_clock::now() < give_up) ||
         served < 20) {
    const auto& x = samples[served % samples.size()];
    ASSERT_TRUE(healthy.send_predict(served, x));
    PredictResponse resp;
    ASSERT_TRUE(healthy.read_predict(resp, prompt_ms)) << "healthy request " << served;
    EXPECT_EQ(resp.id, served);
    EXPECT_EQ(resp.predicted_class, offline_predict(ref, x, scratch));
    ++served;
  }
  ASSERT_EQ(cut_off.load(), stalled_peers) << "the server never dropped its stalled readers";
  stalled.clear();  // joins

  // Every admitted request was answered or failed; the frames the dropped
  // peers never read are counted as dropped.
  ASSERT_TRUE(wait_for_stats(server, [&](const MetricsSnapshot& s) {
    return s.connections_closed == stalled_peers && s.queue_depth == 0 &&
           s.responses_total + s.predict_errors == s.requests_total;
  }));
  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.predict_errors, 0U);
  EXPECT_GT(stats.dropped_responses, 0U);
  EXPECT_LE(stats.dropped_responses, stats.responses_total - served);
  server.stop();
}

TEST(ServeFault, ErrorFrameReachesAPeerThatReadsLate) {
  const ServeConfig config;
  Server server(config, {make_model(59), 0, "", ""});
  server.start();

  const QuantizedMlp ref = make_model(59);
  const auto samples = make_samples(8, 6, 69);
  InferScratch scratch;

  // A pipelined peer sends a burst without reading.  Its 4000 responses
  // (about 68 KB) are more than twice what the kernel buffers for this
  // peer, so the rest waits on the server, under its unsent-output cap.
  const int fd = connect_stalled_reader(server.port());
  ASSERT_GE(fd, 0);
  constexpr std::uint32_t kBurst = 4000;
  std::vector<std::uint8_t> out;
  for (std::uint32_t i = 0; i < kBurst; ++i) encode_predict(out, i, samples[i % samples.size()]);
  ASSERT_TRUE(send_all(fd, out.data(), out.size()));
  ASSERT_TRUE(wait_for_stats(server, [&](const MetricsSnapshot& s) {
    return s.responses_total == kBurst;
  }));

  // Then a framing violation (zero length), and only then the peer reads.
  const std::uint8_t zero[4] = {0, 0, 0, 0};
  ASSERT_TRUE(send_all(fd, zero, sizeof zero));
  std::vector<std::uint8_t> in;
  bool eof = false;
  const int timeout_ms = 5000 * pnm::build_info::timing_multiplier();
  for (std::uint8_t buf[4096];;) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) break;
    const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
    if (got <= 0) {
      eof = got == 0;
      break;
    }
    in.insert(in.end(), buf, buf + got);
  }
  ::close(fd);
  EXPECT_TRUE(eof) << "the server never closed the connection";

  // The peer gets the responses queued ahead of the violation, every one
  // bit-exact, then kError{kMalformedFrame} as the last frame.
  std::vector<bool> seen(kBurst, false);
  std::size_t answered = 0;
  std::size_t errors = 0;
  bool error_last = false;
  FrameReader reader(kDefaultMaxFrameBytes);
  ASSERT_TRUE(reader.feed(in.data(), in.size(),
                          [&](FrameType type, std::span<const std::uint8_t> payload) {
                            error_last = type == FrameType::kError;
                            if (error_last) {
                              ErrorCode code{};
                              std::string message;
                              ASSERT_TRUE(decode_error(payload, code, message));
                              EXPECT_EQ(code, ErrorCode::kMalformedFrame);
                              ++errors;
                              return;
                            }
                            PredictResponse resp;
                            ASSERT_TRUE(decode_predict_resp(payload, resp));
                            ASSERT_LT(resp.id, kBurst);
                            EXPECT_FALSE(seen[resp.id]) << "duplicate id " << resp.id;
                            seen[resp.id] = true;
                            EXPECT_EQ(resp.predicted_class,
                                      offline_predict(ref, samples[resp.id % samples.size()],
                                                      scratch));
                            ++answered;
                          }));
  EXPECT_FALSE(reader.mid_frame());
  EXPECT_EQ(errors, 1U);
  EXPECT_TRUE(error_last) << "the error frame was not the last frame";

  // Responses still in flight when the violation arrived are dropped,
  // and counted so.
  ASSERT_TRUE(wait_for_stats(server, [&](const MetricsSnapshot& s) {
    return s.connections_closed == 1 && s.queue_depth == 0;
  }));
  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.oversized_rejected, 1U);
  EXPECT_EQ(stats.requests_total, kBurst);
  EXPECT_EQ(answered + stats.dropped_responses, kBurst);
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

/// The parameter says whether "beta" also swaps twice during alpha's storm.
class SwapStorm : public ::testing::TestWithParam<bool> {};

TEST_P(SwapStorm, RoutedLoadPreservesPerModelIsolation) {
  // Two models; the default ("alpha") is swapped back and forth under
  // live load while "beta" serves a concurrent loadgen.  Alpha's verify
  // map pins every version to the design that must have produced it.
  // Without beta swaps, beta verifying ONLY version 1 proves the storm
  // never touched it; with them, beta's own ledger must count exactly
  // its two swaps while alpha's stays as it was.
  const bool beta_swaps = GetParam();
  const QuantizedMlp alpha_v1 = make_model(54);
  const QuantizedMlp alpha_alt = make_model(55);
  const QuantizedMlp beta_ref = make_model(56);
  const QuantizedMlp beta_alt = make_model(57);

  const std::string path_a = ::testing::TempDir() + "pnm_fault_swap_a.pnm";
  const std::string path_alt = ::testing::TempDir() + "pnm_fault_swap_alt.pnm";
  const std::string path_b = ::testing::TempDir() + "pnm_fault_swap_b.pnm";
  const std::string path_b_alt = ::testing::TempDir() + "pnm_fault_swap_b_alt.pnm";
  ASSERT_TRUE(save_quantized_mlp(alpha_v1, path_a, "a"));
  ASSERT_TRUE(save_quantized_mlp(alpha_alt, path_alt, "a-alt"));
  ASSERT_TRUE(save_quantized_mlp(beta_ref, path_b, "b"));
  ASSERT_TRUE(save_quantized_mlp(beta_alt, path_b_alt, "b-alt"));

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
  load_b.verify[1] = &beta_ref;  // without beta swaps, ONLY v1 may answer
  if (beta_swaps) {
    load_b.swaps = {{100, path_b_alt}, {200, path_b}};
    load_b.verify[2] = &beta_alt;
    load_b.verify[3] = &beta_ref;
  }

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
                             << " unknown_version=" << report_b.unknown_version
                             << " swap_failures=" << report_b.swap_failures;
  if (beta_swaps) {
    EXPECT_GE(report_b.responses_by_version.size(), 2U);  // a swap landed mid-stream
  } else {
    // Beta saw exactly one version across the whole storm.
    ASSERT_EQ(report_b.responses_by_version.size(), 1U);
    EXPECT_EQ(report_b.responses_by_version.begin()->first, 1U);
  }

  const std::uint64_t beta_swaps_ok = beta_swaps ? 2 : 0;
  const MetricsSnapshot stats = server.stats();
  EXPECT_EQ(stats.swaps_ok, 4U + beta_swaps_ok);
  EXPECT_EQ(stats.swaps_failed, 0U);
  ASSERT_EQ(stats.models.size(), 2U);
  EXPECT_EQ(stats.models[0].version, 5U);   // alpha: 1 + 4 swaps
  EXPECT_EQ(stats.models[0].swaps_ok, 4U);
  EXPECT_EQ(stats.models[1].version, 1U + beta_swaps_ok);
  EXPECT_EQ(stats.models[1].swaps_ok, beta_swaps_ok);
  EXPECT_EQ(stats.models[0].responses, report_a.received);
  EXPECT_EQ(stats.models[1].responses, report_b.received);
  EXPECT_EQ(stats.dropped_responses, 0U);

  server.stop();
  for (const std::string& path : {path_a, path_alt, path_b, path_b_alt}) {
    std::remove(path.c_str());
  }
}

INSTANTIATE_TEST_SUITE_P(BetaSwaps, SwapStorm, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("BetaSwapsTwice")
                                             : std::string("BetaServesOnly");
                         });

}  // namespace
}  // namespace pnm::serve

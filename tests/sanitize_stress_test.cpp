/// Sanitizer-targeted stress tests: deliberately racy schedules over the
/// concurrency surfaces (Batcher admission/drain/shutdown, Server
/// hot-swap + stats under client load + teardown mid-flight, EvalStore
/// concurrent writers) so TSan gets real interleavings to judge and
/// ASan sees the teardown paths under churn.
///
/// In a plain build these schedules add nothing the functional suites
/// don't already cover, so the whole file skips with a note — the
/// sanitizer CI presets (see docs/CORRECTNESS.md) are where it earns
/// its keep.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "pnm/core/eval_store.hpp"
#include "pnm/core/model_io.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/serve/batcher.hpp"
#include "pnm/serve/client.hpp"
#include "pnm/serve/server.hpp"
#include "pnm/util/build_info.hpp"
#include "pnm/util/rng.hpp"

namespace pnm {
namespace {

#define PNM_REQUIRE_SANITIZER()                                              \
  do {                                                                       \
    if (!pnm::build_info::any_sanitizer()) {                                 \
      GTEST_SKIP() << "stress schedule only earns its keep under a "         \
                      "sanitizer build (cmake --preset asan|tsan|ubsan)";    \
    }                                                                        \
  } while (0)

QuantizedMlp make_model(std::uint64_t seed) {
  Rng rng(seed);
  const Mlp net({6, 5, 3}, rng);
  return QuantizedMlp::from_float(net, QuantSpec::uniform(2, 5, 4));
}

// Producers race bulk admission against batch drain and a mid-flight
// shutdown.  Each producer takes requests from the pool in bulk, as a
// reactor does, and admits sweeps of 0 to 150 requests with one push
// (the largest outgrows the ring's initial 64 slots more than twice
// over, so one push may grow it by several doublings), and consumers
// recycle each batch with one release.  Every request must come back
// exactly once or be drained by the final pop_batch loop, and the queue
// must end empty.
TEST(SanitizeStress, BatcherProducersVsShutdown) {
  PNM_REQUIRE_SANITIZER();
  constexpr int kCycles = 3;
  constexpr int kProducers = 4;
  constexpr int kSweeps = 40;
  constexpr std::size_t kSweepSizes[] = {0, 1, 2, 7, 8, 9, 33, 0, 3, 150};
  constexpr std::size_t kSizes = std::size(kSweepSizes);

  std::size_t expected = 0;
  for (int p = 0; p < kProducers; ++p) {
    for (int s = 0; s < kSweeps; ++s) expected += kSweepSizes[(p + s) % kSizes];
  }

  for (int cycle = 0; cycle < kCycles; ++cycle) {
    serve::RequestPool pool;
    serve::Batcher batcher(8, /*deadline_us=*/50);
    batcher.push({}, std::chrono::steady_clock::now());  // an empty sweep admits nothing
    EXPECT_EQ(batcher.depth(), 0U);
    std::atomic<std::size_t> popped{0};

    std::vector<std::thread> consumers;
    for (int c = 0; c < 2; ++c) {
      consumers.emplace_back([&] {
        std::vector<serve::ServeRequest*> batch;
        while (batcher.pop_batch(batch)) {
          popped.fetch_add(batch.size(), std::memory_order_relaxed);
          pool.release(batch);
        }
      });
    }

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::vector<serve::ServeRequest*> sweep;
        std::vector<serve::ServeRequest*> spare;  // bulk-acquired, as a reactor does
        std::uint32_t id = 0;
        for (int s = 0; s < kSweeps; ++s) {
          sweep.clear();
          for (std::size_t j = 0; j < kSweepSizes[(p + s) % kSizes]; ++j) {
            if (spare.empty()) pool.acquire(spare);
            serve::ServeRequest* r = spare.back();
            spare.pop_back();
            r->id = id++;
            r->features.assign(6, 0.5);
            sweep.push_back(r);
          }
          batcher.push(sweep, std::chrono::steady_clock::now());
          if (s % 8 == 0) std::this_thread::yield();
        }
        pool.release(spare);
      });
    }
    for (auto& t : producers) t.join();
    batcher.shutdown();  // races against the last admissions' drain
    for (auto& t : consumers) t.join();

    EXPECT_EQ(popped.load(), expected);
    EXPECT_EQ(batcher.depth(), 0U);
  }
}

// Client threads hammer predictions while the main thread flips the live
// model back and forth and polls stats; each cycle then tears the server
// down while clients may still be mid-request.  Clients treat every IO
// failure as "server went away", which is the one outcome teardown is
// allowed to produce.
TEST(SanitizeStress, ServerHotSwapStopUnderLoad) {
  PNM_REQUIRE_SANITIZER();
  const std::string path_a = ::testing::TempDir() + "pnm_stress_swap_a.pnm";
  const std::string path_b = ::testing::TempDir() + "pnm_stress_swap_b.pnm";
  ASSERT_TRUE(save_quantized_mlp(make_model(11), path_a, "stress-a"));
  ASSERT_TRUE(save_quantized_mlp(make_model(12), path_b, "stress-b"));

  constexpr int kCycles = 2;
  constexpr int kClients = 3;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    serve::ServeConfig config;
    config.batch_max = 4;
    config.batch_deadline_us = 100;
    config.worker_threads = 2;
    serve::Server server(config, {make_model(11), 0, path_a, ""});
    server.start();

    std::atomic<bool> stop_clients{false};
    std::atomic<int> responses{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        serve::ServeClient client;
        if (!client.connect("127.0.0.1", server.port())) return;
        const std::vector<double> x(6, 0.25 + 0.1 * c);
        std::uint32_t id = 0;
        while (!stop_clients.load(std::memory_order_relaxed)) {
          if (!client.send_predict(id++, x)) return;
          serve::PredictResponse resp;
          if (!client.read_predict(resp, /*timeout_ms=*/2000)) return;
          responses.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }

    std::string error;
    for (int s = 0; s < 20; ++s) {
      ASSERT_TRUE(server.swap_model("", s % 2 == 0 ? path_b : path_a, &error)) << error;
      (void)server.stats();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // First cycle: orderly (clients quiesce before stop).  Second cycle:
    // stop() lands while clients are mid-request.
    if (cycle == 0) {
      stop_clients.store(true);
      for (auto& t : clients) t.join();
      server.stop();
    } else {
      server.stop();
      stop_clients.store(true);
      for (auto& t : clients) t.join();
    }
    EXPECT_GT(responses.load(), 0);
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// Concurrent put()/lookup()/entries() on one EvalStore instance: the
// in-process mutex must serialize the map and the append stream while
// readers iterate snapshots.
TEST(SanitizeStress, EvalStoreConcurrentWritersAndReaders) {
  PNM_REQUIRE_SANITIZER();
  const std::string dir = ::testing::TempDir() + "pnm_stress.evalstore";
  std::filesystem::remove_all(dir);
  EvalStore store(dir, "stress-fp");

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 100;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      DesignPoint p;
      p.technique = "ga";
      p.config = "b4,3|s20,40|c0,4";
      for (int i = 0; i < kPerWriter; ++i) {
        p.accuracy = 0.5 + 0.001 * i;
        p.area_mm2 = 1.0 + w;
        p.power_uw = 3.0;
        p.delay_ms = 0.1;
        store.put("w" + std::to_string(w) + "k" + std::to_string(i), p);
      }
    });
  }
  std::atomic<bool> stop_readers{false};
  std::thread reader([&] {
    while (!stop_readers.load(std::memory_order_relaxed)) {
      (void)store.lookup("w0k0");
      (void)store.size();
      (void)store.entries();
      std::this_thread::yield();
    }
  });
  for (auto& t : writers) t.join();
  stop_readers.store(true);
  reader.join();

  EXPECT_EQ(store.size(), static_cast<std::size_t>(kWriters * kPerWriter));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pnm

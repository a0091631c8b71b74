/// serve_pendigits: an in-process Server with the default topology (one
/// reactor, two workers, batch <= 32, 200 us deadline) driven over one
/// loopback connection by a benchmark-owned open-loop generator: a sender
/// thread paces requests to a schedule and the calling thread receives,
/// verifies and timestamps responses.  Latency is measured from each
/// request's scheduled due time, so a stalled sender cannot hide queueing
/// delay; how late the sender ran is reported beside it.
///
/// Phases: light (fixed rate where the batcher mostly sees single
/// requests), busy (fixed rate well below saturation, blocked SIMD
/// batches), saturated (unpaced bursts with a bounded in-flight window).

#include <poll.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <filesystem>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "pnm/core/infer_simd.hpp"
#include "pnm/core/qmlp.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/data/dataset.hpp"
#include "pnm/data/scaler.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/util/fileio.hpp"
#include "pnm/util/socket.hpp"
#include "pnm/serve/protocol.hpp"
#include "pnm/serve/server.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace pnm;
using namespace pnm::serve;

constexpr double kLightRate = 5000.0;   ///< mean batch < 4: the single-sample path
constexpr double kBusyRate = 30000.0;   ///< mean batch >= 4, well below the knee
/// The server classifies runs of at least this many requests of a batch
/// on the blocked SIMD path (kMinBlockLanes in serve/server.cpp).  The
/// light and busy phases are gated on their mean batch against it.
constexpr double kBlockedBatch = 4.0;
constexpr std::size_t kSatWindow = 4096;  ///< in-flight cap of the unpaced sender
constexpr std::size_t kSendRun = 32;      ///< unpaced requests per send
constexpr std::size_t kSatBurst = 20000;
constexpr std::size_t kWarmupRequests = 4000;
constexpr std::size_t kStreamLength = 1 << 16;
constexpr std::size_t kReplayRequests = 20000;
/// Requests per latency window of a paced phase (p99 keeps 20 samples
/// beyond it).  Host stalls of a few ms are common on shared machines;
/// short windows confine each to one window, and the median over windows
/// ignores them.
constexpr std::size_t kWindowRequests = 2000;
constexpr int kTimeoutMs = 5000;
constexpr std::size_t kSpanEvery = 64;  ///< request spans kept in the trace dump
constexpr std::size_t kAborted = std::numeric_limits<std::size_t>::max() / 2;

/// One phase of a measurement round.  The run repeats rounds of all three
/// phases until the window closes, so every phase samples the whole run
/// (machine slowdowns last seconds; back-to-back phases would each see a
/// different part of them).
struct Phase {
  const char* name;
  double rate;          ///< requests/s; 0 = unpaced bursts
  std::size_t windows;  ///< latency windows (paced) or bursts (unpaced) per round
};

constexpr Phase kPhases[] = {
    {"light", kLightRate, 1},
    {"busy", kBusyRate, 3},
    {"sat", 0.0, 2},
};

/// The request stream: which test sample each request carries.
struct Stream {
  const std::vector<std::vector<double>>* features = nullptr;
  std::vector<std::uint32_t> sample;    ///< per request
  std::vector<std::uint32_t> expected;  ///< offline class per test sample
  const std::vector<double>& x(std::size_t k) const {
    return (*features)[sample[k % sample.size()]];
  }
};

struct LoadResult {
  /// Per request id (NaN when unanswered): response arrival minus the
  /// scheduled due time, minus the actual send, and actual send minus due.
  std::vector<double> due_us;
  std::vector<double> send_us;
  std::vector<double> late_us;
  std::size_t sent = 0;
  std::size_t received = 0;
  std::size_t send_failures = 0;
  std::size_t lost = 0;  ///< sent but never answered within the timeout
  std::size_t mismatches = 0;
  std::size_t bad_ids = 0;
  double wall_s = 0.0;
  [[nodiscard]] std::size_t errors() const {
    return send_failures + lost + mismatches + bad_ids;
  }
};

std::int64_t ns_of(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// The load generator's connection: one loopback TCP socket, written by
/// the sender thread and read by the receiving thread.  Responses are read
/// in large chunks and reassembled with the protocol's FrameReader, and
/// the unpaced sender writes runs of frames per send, so at saturation the
/// server sets the rate.  (ServeClient reads each frame with its own
/// blocking receive calls; at a single generator CPU that path, not the
/// server, capped the saturated rate.)
class LoadConnection {
 public:
  explicit LoadConnection(std::uint16_t port) : fd_(tcp_connect("127.0.0.1", port)) {
    if (fd_ < 0) throw std::runtime_error("cannot connect to the in-process server");
  }
  ~LoadConnection() { ::close(fd_); }
  LoadConnection(const LoadConnection&) = delete;
  LoadConnection& operator=(const LoadConnection&) = delete;

  bool send(const std::vector<std::uint8_t>& bytes) {
    return send_all(fd_, bytes.data(), bytes.size());
  }

  /// Waits up to `timeout_ms` for bytes and hands every complete predict
  /// response to `on_response`.  False on timeout, close, or a frame that
  /// is not a well-formed predict response.
  template <typename Fn>
  bool receive(int timeout_ms, Fn&& on_response) {
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    const long n = recv_some(fd_, buf_.data(), buf_.size());
    if (n <= 0) return false;
    bool well_formed = true;
    const bool framed = reader_.feed(
        buf_.data(), static_cast<std::size_t>(n),
        [&](FrameType type, std::span<const std::uint8_t> payload) {
          PredictResponse resp;
          if (type == FrameType::kPredictResp && decode_predict_resp(payload, resp)) {
            on_response(resp);
          } else {
            well_formed = false;
          }
        });
    return framed && well_formed;
  }

 private:
  int fd_;
  FrameReader reader_;
  std::vector<std::uint8_t> buf_ = std::vector<std::uint8_t>(1 << 16);
};

/// Sends `count` requests starting at stream position `offset`, paced at
/// `rate` (or unpaced with at most kSatWindow in flight), and receives
/// and verifies every response.
LoadResult drive(LoadConnection& conn, const Stream& stream, std::size_t offset,
                  std::size_t count, double rate, Tracer* tracer, const char* span_name) {
  LoadResult r;
  const double missing = std::numeric_limits<double>::quiet_NaN();
  r.due_us.assign(count, missing);
  r.send_us.assign(count, missing);
  r.late_us.assign(count, missing);
  std::vector<std::atomic<std::int64_t>> due_ns(count);
  std::vector<std::atomic<std::int64_t>> send_ns(count);
  std::vector<std::int64_t> arrival_ns(count, -1);
  std::atomic<std::size_t> sent_ok{0};
  std::atomic<std::size_t> send_failures{0};
  std::atomic<bool> sender_done{false};
  /// Responses released to the unpaced sender's window; pushed past any
  /// window on abort so a waiting sender always wakes.
  std::atomic<std::size_t> released{0};

  ScopedSpan phase_span(tracer, span_name);
  const Clock::time_point origin = Clock::now();
  std::thread sender([&] {
    std::vector<std::uint8_t> tx;
    for (std::size_t k = 0; k < count;) {
      // The run of requests this send carries: one paced request at its
      // due time, or as many unpaced ones as the window allows (<= 32).
      std::size_t run = 1;
      Clock::time_point due;
      if (rate > 0.0) {
        due = origin + std::chrono::nanoseconds(
                           static_cast<std::int64_t>(1e9 * static_cast<double>(k) / rate));
        std::this_thread::sleep_until(due);
      } else {
        std::size_t seen = released.load(std::memory_order_acquire);
        while (k >= seen + kSatWindow) {
          released.wait(seen, std::memory_order_acquire);
          seen = released.load(std::memory_order_acquire);
        }
        run = std::min({count - k, seen + kSatWindow - k, kSendRun});
        due = Clock::now();
      }
      if (released.load(std::memory_order_acquire) >= kAborted) break;
      tx.clear();
      for (std::size_t j = k; j < k + run; ++j) {
        encode_predict(tx, static_cast<std::uint32_t>(j), stream.x(offset + j));
      }
      const std::int64_t send_at = ns_of(Clock::now() - origin);
      for (std::size_t j = k; j < k + run; ++j) {
        due_ns[j].store(ns_of(due - origin), std::memory_order_relaxed);
        send_ns[j].store(send_at, std::memory_order_release);
      }
      if (!conn.send(tx)) {
        send_failures.fetch_add(run, std::memory_order_release);
        break;
      }
      sent_ok.fetch_add(run, std::memory_order_release);
      k += run;
    }
    sender_done.store(true, std::memory_order_release);
  });

  std::int64_t last_arrival = 0;
  auto on_response = [&](const PredictResponse& resp) {
    const std::int64_t now = ns_of(Clock::now() - origin);
    last_arrival = now;
    if (resp.id >= count || arrival_ns[resp.id] >= 0) {
      ++r.bad_ids;
    } else {
      const std::int64_t due = due_ns[resp.id].load(std::memory_order_relaxed);
      const std::int64_t sent = send_ns[resp.id].load(std::memory_order_acquire);
      arrival_ns[resp.id] = now;
      r.due_us[resp.id] = static_cast<double>(now - due) / 1e3;
      r.send_us[resp.id] = static_cast<double>(now - sent) / 1e3;
      r.late_us[resp.id] = static_cast<double>(sent - due) / 1e3;
      const std::size_t sample = stream.sample[(offset + resp.id) % stream.sample.size()];
      if (resp.predicted_class != stream.expected[sample]) ++r.mismatches;
    }
    ++r.received;
  };
  while (!(sender_done.load(std::memory_order_acquire) &&
           r.received >= sent_ok.load(std::memory_order_acquire))) {
    if (!conn.receive(kTimeoutMs, on_response)) {
      released.store(kAborted, std::memory_order_release);
      released.notify_one();
      break;
    }
    if (rate <= 0.0) {
      released.store(r.received, std::memory_order_release);
      released.notify_one();
    }
  }
  sender.join();

  r.sent = sent_ok.load() + send_failures.load();
  r.send_failures = send_failures.load();
  r.lost = sent_ok.load() > r.received ? sent_ok.load() - r.received : 0;
  r.wall_s = static_cast<double>(last_arrival) / 1e9;

  if (tracer != nullptr) {
    const std::int64_t base = tracer->at_ns(origin);
    for (std::size_t k = 0; k < count; k += kSpanEvery) {
      if (arrival_ns[k] < 0) continue;
      Tracer::Span request;
      request.name = "request";
      request.subject = std::to_string(k);
      request.id = tracer->next_id();
      request.parent = phase_span.id();
      request.tid = 1000;
      request.start_ns = base + due_ns[k].load();
      request.end_ns = base + arrival_ns[k];
      Tracer::Span late = request;
      late.name = "loadgen.late";
      late.id = tracer->next_id();
      late.parent = request.id;
      late.end_ns = base + send_ns[k].load();
      Tracer::Span flight = request;
      flight.name = "request.in_flight";
      flight.id = tracer->next_id();
      flight.parent = request.id;
      flight.start_ns = late.end_ns;
      tracer->record(std::move(late));
      tracer->record(std::move(flight));
      tracer->record(std::move(request));
    }
  }
  return r;
}

/// Latency percentiles of one phase, one entry per drive (a window of
/// kWindowRequests paced requests, or one unpaced burst).  Medians over
/// the windows are reported, so one stall moves one window, not the phase.
struct Windows {
  std::vector<double> due_p50, due_p90, due_p99, send_p50, late_p99;
  std::size_t sent = 0;

  void add(const LoadResult& r) {
    std::vector<double> due, send, late;
    for (std::size_t k = 0; k < r.due_us.size(); ++k) {
      if (std::isnan(r.due_us[k])) continue;
      due.push_back(r.due_us[k]);
      send.push_back(r.send_us[k]);
      late.push_back(r.late_us[k]);
    }
    sent += r.sent;
    if (due.empty()) return;
    due_p50.push_back(percentile(due, 50.0));
    due_p90.push_back(percentile(due, 90.0));
    due_p99.push_back(percentile(std::move(due), 99.0));
    send_p50.push_back(percentile(std::move(send), 50.0));
    late_p99.push_back(percentile(std::move(late), 99.0));
  }
};

/// Per-phase view of the server's cumulative counters.
MetricsSnapshot diff(const MetricsSnapshot& after, const MetricsSnapshot& before) {
  MetricsSnapshot d;
  d.latency_hist = after.latency_hist;
  for (std::size_t i = 0; i < d.latency_hist.size() && i < before.latency_hist.size(); ++i) {
    d.latency_hist[i] -= before.latency_hist[i];
  }
  d.batch_size_hist = after.batch_size_hist;
  for (std::size_t i = 0; i < d.batch_size_hist.size() && i < before.batch_size_hist.size();
       ++i) {
    d.batch_size_hist[i] -= before.batch_size_hist[i];
  }
  d.batches_total = after.batches_total - before.batches_total;
  return d;
}

/// Thread placement.  With four or more CPUs, every thread the server
/// starts gets a CPU of its own and the load generator (sender and
/// receiver) shares the last one, so the generator never competes with
/// the reactor or a worker, and the scheduler cannot stack two server
/// threads on one CPU (left to it, that happened in some runs and not in
/// others, which made the saturated rate bimodal).  With fewer CPUs
/// nothing is pinned.
class Placement {
 public:
  Placement() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
    if (cpus_.size() < 4) cpus_.clear();
  }

  /// Pins the threads that appeared since `before` (the server's) one per
  /// CPU, and the calling thread to the load generator's CPU.
  void pin_new_threads(const std::set<long>& before) const {
    if (cpus_.empty()) return;
    std::size_t next = 0;
    for (const long tid : thread_ids()) {
      if (before.count(tid) != 0) continue;
      set_affinity(static_cast<pid_t>(tid), cpus_[next % (cpus_.size() - 1)]);
      ++next;
    }
    set_affinity(0, cpus_.back());
  }

  /// Thread ids of this process.
  static std::set<long> thread_ids() {
    std::set<long> ids;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task", ec)) {
      ids.insert(std::strtol(entry.path().filename().c_str(), nullptr, 10));
    }
    return ids;
  }

 private:
  static void set_affinity(pid_t tid, int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(tid, sizeof set, &set);
  }

  std::vector<int> cpus_;
};

/// Adds one drive's counter deltas to a phase's running total.
void accumulate(MetricsSnapshot& total, const MetricsSnapshot& delta) {
  total.latency_hist.resize(delta.latency_hist.size());
  total.batch_size_hist.resize(delta.batch_size_hist.size());
  for (std::size_t i = 0; i < delta.latency_hist.size(); ++i) {
    total.latency_hist[i] += delta.latency_hist[i];
  }
  for (std::size_t i = 0; i < delta.batch_size_hist.size(); ++i) {
    total.batch_size_hist[i] += delta.batch_size_hist[i];
  }
  total.batches_total += delta.batches_total;
}

QuantizedMlp train_design(const DataSplit& split, std::size_t n_classes) {
  const QuantSpec spec = QuantSpec::uniform(2, 5, 4);
  Rng rng(1);
  Mlp model({split.train.n_features(), 10, n_classes}, rng);
  TrainConfig config;
  config.epochs = 8;
  Trainer trainer(config);
  trainer.set_weight_view(make_qat_view(spec));
  trainer.fit(model, split.train, rng);
  return QuantizedMlp::from_float(model, spec);
}

/// A served design with its server and one connected client.
struct Deployment {
  DataSplit split;
  QuantizedMlp design;
  std::unique_ptr<Server> server;
  std::unique_ptr<LoadConnection> conn;
};

std::unique_ptr<Deployment> deploy(const Placement& placement) {
  auto d = std::make_unique<Deployment>();
  const Dataset data = make_pendigits();
  Rng rng(42);
  d->split = stratified_split(data, 0.6, 0.2, 0.2, rng);
  MinMaxScaler scaler;
  scale_split(d->split, scaler);
  d->design = train_design(d->split, data.n_classes);
  d->server = std::make_unique<Server>(ServeConfig{}, ServedModel{d->design, 0, "", {}});
  const std::set<long> before = Placement::thread_ids();
  d->server->start();
  placement.pin_new_threads(before);
  d->conn = std::make_unique<LoadConnection>(d->server->port());
  return d;
}

template <typename Fn>
double median_ns_per_item(std::size_t items, Fn&& fn) {
  std::vector<double> per_item;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    fn();
    per_item.push_back(seconds_since(start) * 1e9 / static_cast<double>(items));
  }
  return median(per_item);
}

/// Offline replays of the public protocol, quantize and predict calls on
/// the recorded request stream.
void replay_layers(const Deployment& d, const Stream& stream, Outcome& out) {
  const std::size_t n = kReplayRequests;
  const int bits = d.design.input_bits();
  std::vector<std::uint8_t> wire;
  std::vector<std::uint8_t> resp_wire;
  wire.reserve(n * 160);
  resp_wire.reserve(n * 20);
  out.set("protocol.encode_ns", median_ns_per_item(n, [&] {
            wire.clear();
            resp_wire.clear();
            for (std::size_t k = 0; k < n; ++k) {
              encode_predict(wire, static_cast<std::uint32_t>(k), stream.x(k));
              encode_predict_resp(resp_wire, static_cast<std::uint32_t>(k), 1,
                                  stream.expected[stream.sample[k]]);
            }
          }));
  std::size_t decoded = 0;
  bool decode_ok = true;
  out.set("protocol.decode_ns", median_ns_per_item(n, [&] {
            FrameReader reader;
            std::uint32_t id = 0;
            std::vector<double> features;
            decoded = 0;
            decode_ok = reader.feed(wire.data(), wire.size(),
                                    [&](FrameType type, std::span<const std::uint8_t> payload) {
                                      if (type == FrameType::kPredict &&
                                          decode_predict(payload, id, features) && id == decoded) {
                                        ++decoded;
                                      }
                                    });
          }));
  out.gate(decode_ok && decoded == n, "protocol replay did not decode every recorded frame");

  std::vector<std::vector<std::int64_t>> codes(n);
  out.set("quantize.stage_ns", median_ns_per_item(n, [&] {
            for (std::size_t k = 0; k < n; ++k) quantize_input_into(stream.x(k), bits, codes[k]);
          }));
  InferScratch scratch;
  std::size_t wrong = 0;
  out.set("infer.single_ns", median_ns_per_item(n, [&] {
            wrong = 0;
            for (std::size_t k = 0; k < n; ++k) {
              wrong += d.design.predict_quantized_into(codes[k], scratch) !=
                       stream.expected[stream.sample[k]];
            }
          }));
  out.gate(wrong == 0, "single-sample replay disagrees with the offline classes");

  const QuantizedDataset blocked = quantize_dataset(d.split.test, bits);
  BlockScratch block_scratch;
  std::vector<std::size_t> preds(blocked.size());
  const std::size_t rounds = std::max<std::size_t>(1, n / blocked.size());
  out.set("infer.block_ns", median_ns_per_item(rounds * blocked.size(), [&] {
            for (std::size_t r = 0; r < rounds; ++r) {
              for (std::size_t b = 0; b < blocked.block_count(); ++b) {
                const std::size_t first = b * simd::kSampleBlock;
                const std::size_t lanes = std::min(simd::kSampleBlock, blocked.size() - first);
                d.design.predict_block_into(blocked.block(b), lanes, block_scratch,
                                            preds.data() + first, simd::active_isa());
              }
            }
          }));
  std::size_t block_wrong = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) block_wrong += preds[i] != stream.expected[i];
  out.gate(block_wrong == 0, "blocked replay disagrees with the offline classes");
}

}  // namespace

void run_serve_workload(const Options& options, Tracer* tracer, Outcome& out) {
  const Placement placement;
  std::vector<double> setup_s;
  const std::unique_ptr<Deployment> d = timed_setup(setup_s, [&] { return deploy(placement); });

  // ---- the request stream: sample order from the seed -------------------
  Stream stream;
  stream.features = &d->split.test.x;
  Rng rng(options.seed);
  stream.sample.resize(kStreamLength);
  for (auto& s : stream.sample) {
    s = static_cast<std::uint32_t>(rng.uniform_int(d->split.test.size()));
  }
  InferScratch scratch;
  std::vector<std::int64_t> xq;
  for (const auto& x : d->split.test.x) {
    quantize_input_into(x, d->design.input_bits(), xq);
    stream.expected.push_back(
        static_cast<std::uint32_t>(d->design.predict_quantized_into(xq, scratch)));
  }
  std::string order;
  for (std::size_t k = 0; k < 4096; ++k) order += std::to_string(stream.sample[k]) + ",";
  out.inputs_fingerprint = fnv1a64_hex(order);

  std::size_t errors = 0;
  std::size_t sent = 0;
  std::size_t offset = 0;
  auto account = [&](const LoadResult& r) {
    errors += r.errors();
    sent += r.sent;
    offset += r.sent;
  };
  account(drive(*d->conn, stream, offset, kWarmupRequests, 0.0, nullptr, "warmup"));

  struct PhaseState {
    Windows win;
    MetricsSnapshot server;  ///< server counters accumulated over this phase's drives
  };
  std::vector<PhaseState> state(std::size(kPhases));
  std::vector<double> round_wall, burst_wall, burst_rate, traced_wall;
  auto run_drive = [&](std::size_t phase, std::size_t count, Tracer* t) {
    const MetricsSnapshot before = d->server->stats();
    LoadResult r = drive(*d->conn, stream, offset, count, kPhases[phase].rate, t,
                          kPhases[phase].name);
    accumulate(state[phase].server, diff(d->server->stats(), before));
    account(r);
    state[phase].win.add(r);
    return r;
  };
  const Clock::time_point window = Clock::now();
  while (round_wall.empty() || seconds_since(window) < options.seconds) {
    // One set-up sample per round, on a deployment of its own that is torn
    // down again, so the measured server keeps its warmed-up state.
    {
      const std::unique_ptr<Deployment> probe =
          timed_setup(setup_s, [&] { return deploy(placement); });
      probe->conn.reset();
      probe->server->stop();
    }
    const Clock::time_point round_start = Clock::now();
    for (std::size_t p = 0; p < std::size(kPhases); ++p) {
      for (std::size_t i = 0; i < kPhases[p].windows; ++i) {
        if (kPhases[p].rate > 0.0) {
          run_drive(p, kWindowRequests, tracer);
          continue;
        }
        const LoadResult r = run_drive(p, kSatBurst, nullptr);
        burst_wall.push_back(r.wall_s);
        burst_rate.push_back(static_cast<double>(r.received) / r.wall_s);
        if (tracer != nullptr) traced_wall.push_back(run_drive(p, kSatBurst, tracer).wall_s);
      }
    }
    round_wall.push_back(seconds_since(round_start));
  }

  for (std::size_t p = 0; p < std::size(kPhases); ++p) {
    const Phase& phase = kPhases[p];
    const Windows& win = state[p].win;
    const MetricsSnapshot& server = state[p].server;
    const std::string suffix = std::string(".") + phase.name;
    const double server_p50 = server.latency_percentile_us(50.0);
    out.set("batcher.batch_mean" + suffix, server.mean_batch_size());
    out.set("batcher.batches" + suffix, static_cast<double>(server.batches_total));
    out.set("server.p50_us" + suffix, server_p50);
    out.set("server.p99_us" + suffix, server.latency_percentile_us(99.0));
    out.set("wire.p50_us" + suffix, median(win.send_p50) - server_p50);
    out.set("loadgen.late_p99_us" + suffix, median(win.late_p99));
    out.set("loadgen.sent" + suffix, static_cast<double>(win.sent));
    if (std::string(phase.name) == "light") {
      out.gate(server.mean_batch_size() < kBlockedBatch,
               "serve: light phase mean batch reached the blocked path");
      out.set("serve.light_p50_us", median(win.due_p50));
      out.set("serve.light_p99_us", median(win.due_p99));
    } else if (std::string(phase.name) == "busy") {
      out.gate(server.mean_batch_size() >= kBlockedBatch,
               "serve: busy phase mean batch fell below the blocked path");
      out.set("p50_us", median(win.due_p50));
      out.set("p90_us", median(win.due_p90));
      out.set("serve.busy_p99_us", median(win.due_p99));
    }
    std::printf("perfbench-info {\"phase\":\"%s\",\"requests\":%zu,\"windows\":%zu,"
                "\"mean_batch\":%.3f}\n",
                phase.name, win.sent, win.due_p50.size(), server.mean_batch_size());
  }

  // ---- correctness gates ---------------------------------------------------
  const MetricsSnapshot stats = d->server->stats();
  out.gate(errors == 0, "serve: send failures, lost responses, bad ids or wrong classes");
  out.gate(stats.responses_total + stats.predict_errors == stats.requests_total,
           "serve: responses + predict errors != requests once quiescent");
  out.gate(stats.requests_total == sent, "serve: server admitted a different request count");
  out.gate(stats.dropped_responses == 0 && stats.protocol_errors == 0,
           "serve: dropped responses or protocol errors");
  out.attempted = sent;
  out.failed = errors;

  out.set("setup_s", median(setup_s));
  out.set("wall_s", median(round_wall));
  out.set("throughput_per_s", median(burst_rate));
  out.set("failed_ratio", static_cast<double>(errors) / static_cast<double>(sent));
  out.set("server.requests", static_cast<double>(stats.requests_total));
  out.set("server.responses", static_cast<double>(stats.responses_total));
  out.set("server.dropped", static_cast<double>(stats.dropped_responses));
  out.set("server.protocol_errors", static_cast<double>(stats.protocol_errors));
  if (tracer != nullptr) {
    out.set("trace.overhead_ratio", median(traced_wall) / median(burst_wall));
    replay_layers(*d, stream, out);
  }
  d->conn.reset();
  d->server->stop();
}

}  // namespace perfbench

/// serve_main — the inference-as-a-service CLI.
///
/// One binary, four roles (all speaking the serve wire protocol):
///
///   Train a deployable design (QAT at a fixed precision, saved as a
///   pnm-model v1 file):
///     serve_main --train-model pendigits --out model_a.pnm
///                [--weight-bits 5] [--input-bits 4] [--hidden 10]
///                [--train-epochs 30] [--seed 1]
///
///   Serve it (runs until SIGINT/SIGTERM; SIGHUP hot-swaps the file named
///   by --swap-file, or re-loads the default model when it is omitted).
///   --model repeats: a plain path is the default model, NAME=FILE
///   registers an additional named model (clients route by name).
///   --reactors N runs N SO_REUSEPORT accept+IO loops on the port:
///     serve_main --model model_a.pnm [--model beta=model_b.pnm]
///                --port 9000 [--reactors 2] [--batch-max 32]
///                [--batch-deadline-us 200] [--threads 2]
///                [--swap-file model_b.pnm | --swap-file beta=model_c.pnm]
///
///   Drive it open-loop (paced offered rate; with --verify every response
///   is checked bit-exactly against the offline prediction of the design
///   version that served it — nonzero exit on any violation).
///   --model-name NAME routes every request, and every swap, to that
///   model instead of the default one:
///     serve_main --loadgen --port 9000 --model model_a.pnm
///                [--model-name beta] [--rate 5000] [--requests 10000]
///                [--swap-at 2000=model_b.pnm] [--verify 2=model_b.pnm]
///
///   Poke a running server (--swap accepts NAME=FILE for named models):
///     serve_main --stats --port 9000
///     serve_main --swap model_b.pnm --port 9000
///     serve_main --swap beta=model_c.pnm --port 9000
///
/// The loadgen's --model names the design the *first* version serves: it
/// sizes the random [0,1] feature vectors and seeds the verify map with
/// version 1.  Later versions come from --verify entries.  Versions are
/// per model name, so a loadgen with --model-name verifies that model's
/// own sequence.
///
/// Numeric values are strict: digits only (--rate also takes a decimal or
/// exponent), in range for the field they set (--port at most 65535).  A
/// malformed value prints "error: <flag>: ..." and exits 1 before any
/// model is loaded, trained, or served.  So does a flag given twice
/// ("error: <flag> given twice"), except the repeatable --model and
/// --swap-at, and --verify, which repeats once per version.
///
/// This binary links only the pnm_infer engine library — serving a design
/// needs none of the minimization stack.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fcntl.h>
#include <iostream>
#include <map>
#include <optional>
#include <poll.h>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unistd.h>
#include <vector>

#include "pnm/core/model_io.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/data/scaler.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/serve/client.hpp"
#include "pnm/serve/server.hpp"
#include "pnm/util/fileio.hpp"
#include "pnm/util/rng.hpp"

namespace {

// Signal plumbing: the handler only sets sig_atomic_t flags and writes
// one byte to a self-pipe (both async-signal-safe) — no allocation, no
// locking, no iostream.  The serve loop blocks on the pipe's read end,
// so a SIGHUP swap happens immediately instead of on the next tick of a
// sleep poll, and the model load/logging all run in the main thread.
volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_hup = 0;
int g_wake_pipe[2] = {-1, -1};

void on_signal(int sig) {
  if (sig == SIGHUP) {
    g_hup = 1;
  } else {
    g_stop = 1;
  }
  const int saved_errno = errno;
  const unsigned char byte = 0;
  // A full pipe (EAGAIN) just means a wakeup is already pending.
  [[maybe_unused]] const ssize_t rc = write(g_wake_pipe[1], &byte, 1);
  errno = saved_errno;
}

bool install_signal_handlers() {
  if (pipe(g_wake_pipe) != 0) return false;
  for (const int fd : g_wake_pipe) {
    const int flags = fcntl(fd, F_GETFL, 0);
    if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) return false;
  }
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;  // only the self-pipe interrupts the serve loop
  return sigaction(SIGINT, &sa, nullptr) == 0 &&
         sigaction(SIGTERM, &sa, nullptr) == 0 &&
         sigaction(SIGHUP, &sa, nullptr) == 0;
}

/// Integer flags and the largest value each accepts (the range of the
/// field it sets).
const std::map<std::string, std::uint64_t> kIntFlags = {
    {"--weight-bits", INT_MAX},
    {"--input-bits", INT_MAX},
    {"--hidden", SIZE_MAX},
    {"--seed", UINT64_MAX},
    {"--train-epochs", SIZE_MAX},
    {"--port", UINT16_MAX},
    {"--batch-max", SIZE_MAX},
    {"--batch-deadline-us", INT64_MAX},
    {"--threads", SIZE_MAX},
    {"--reactors", SIZE_MAX},
    {"--requests", SIZE_MAX},
};

/// `text` as an unsigned integer no larger than `max`.
/// \throws std::invalid_argument  naming `flag` otherwise.
std::uint64_t parse_uint(const std::string& flag, std::string_view text, std::uint64_t max) {
  const std::optional<std::uint64_t> v = pnm::parse_u64_strict(text);
  if (!v || *v > max) {
    const std::string want = max == UINT64_MAX ? "a non-negative integer"
                                               : "an integer in [0, " + std::to_string(max) + "]";
    throw std::invalid_argument(flag + ": expected " + want + ", got '" + std::string(text) + "'");
  }
  return *v;
}

struct Args {
  std::map<std::string, std::string> values;
  std::map<std::string, std::uint64_t> ints;                        // kIntFlags values
  std::optional<double> rate;                                       // loadgen
  std::vector<std::string> models;                                  // serve: every --model
  std::vector<std::pair<std::size_t, std::string>> swap_at;         // loadgen
  std::map<std::uint32_t, std::string> verify;                      // loadgen

  bool has(const std::string& key) const { return values.count(key) != 0 || ints.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback = "") const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
  /// An integer flag's value (already range-checked for its field type).
  template <typename T>
  T num(const std::string& key, T fallback) const {
    const auto it = ints.find(key);
    return it == ints.end() ? fallback : static_cast<T>(it->second);
  }
};

/// Parses and validates every flag, numbers included.
/// \throws std::invalid_argument  on an unknown flag, a malformed value, or
///         a non-repeatable flag (or one --verify version) given twice.
Args parse_args(int argc, char** argv) {
  const std::vector<std::string> flags = {"--loadgen", "--stats"};
  const std::vector<std::string> with_text = {"--train-model", "--out",      "--model",
                                              "--model-name",  "--swap-file", "--swap"};
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool repeats = arg == "--model" || arg == "--swap-at" || arg == "--verify";
    if (!repeats && (args.has(arg) || (arg == "--rate" && args.rate))) {
      throw std::invalid_argument(arg + " given twice");
    }
    if (std::find(flags.begin(), flags.end(), arg) != flags.end()) {
      args.values[arg] = "1";
      continue;
    }
    const bool known = std::find(with_text.begin(), with_text.end(), arg) != with_text.end() ||
                       kIntFlags.count(arg) != 0 || arg == "--rate" || arg == "--swap-at" ||
                       arg == "--verify";
    if (!known || i + 1 >= argc) {
      throw std::invalid_argument("unknown or valueless argument '" + arg + "'");
    }
    const std::string value = argv[++i];
    if (const auto it = kIntFlags.find(arg); it != kIntFlags.end()) {
      args.ints[arg] = parse_uint(arg, value, it->second);
    } else if (arg == "--rate") {
      args.rate = pnm::parse_double_strict(value);
      if (!args.rate || !std::isfinite(*args.rate)) {
        throw std::invalid_argument(arg + ": expected a finite number, got '" + value + "'");
      }
    } else if (arg == "--swap-at" || arg == "--verify") {
      const auto eq = value.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == value.size()) {
        throw std::invalid_argument(arg + ": expected N=PATH, got '" + value + "'");
      }
      const std::string_view n = std::string_view(value).substr(0, eq);
      if (arg == "--swap-at") {
        args.swap_at.emplace_back(parse_uint(arg, n, SIZE_MAX), value.substr(eq + 1));
      } else {
        const auto version = static_cast<std::uint32_t>(parse_uint(arg, n, UINT32_MAX));
        if (!args.verify.emplace(version, value.substr(eq + 1)).second) {
          throw std::invalid_argument(arg + " given twice for version " +
                                      std::to_string(version));
        }
      }
    } else {
      // --model repeats (serve mode registers every occurrence); the
      // first one also lands in `values` for the single-model modes.
      if (arg == "--model") args.models.push_back(value);
      if (arg != "--model" || !args.has("--model")) args.values[arg] = value;
    }
  }
  return args;
}

pnm::Dataset dataset_by_name(const std::string& name, std::uint64_t seed) {
  if (name == "whitewine") return pnm::make_whitewine(seed);
  if (name == "redwine") return pnm::make_redwine(seed);
  if (name == "pendigits") return pnm::make_pendigits(seed);
  if (name == "seeds") return pnm::make_seeds(seed);
  throw std::invalid_argument("unknown dataset '" + name +
                              "' (whitewine|redwine|pendigits|seeds)");
}

int run_train(const Args& args) {
  const std::string out = args.get("--out");
  if (out.empty()) {
    std::cerr << "error: --train-model needs --out PATH\n";
    return 1;
  }
  const auto seed = args.num<std::uint64_t>("--seed", 42);
  const int weight_bits = args.num("--weight-bits", 5);
  const int input_bits = args.num("--input-bits", 4);
  const auto hidden = args.num<std::size_t>("--hidden", 10);
  const auto epochs = args.num<std::size_t>("--train-epochs", 30);

  const std::string name = args.get("--train-model");
  pnm::Dataset data = dataset_by_name(name, 7000 + seed);
  pnm::Rng rng(seed);
  pnm::DataSplit split = pnm::stratified_split(data, 0.6, 0.2, 0.2, rng);
  pnm::MinMaxScaler scaler;
  pnm::scale_split(split, scaler);

  pnm::Mlp model({split.train.n_features(), hidden, data.n_classes}, rng);
  const pnm::QuantSpec spec = pnm::QuantSpec::uniform(2, weight_bits, input_bits);
  pnm::TrainConfig train;
  train.epochs = epochs;
  pnm::Trainer trainer(train);
  trainer.set_weight_view(pnm::make_qat_view(spec));
  trainer.fit(model, split.train, rng);

  const pnm::QuantizedMlp qmodel = pnm::QuantizedMlp::from_float(model, spec);
  const double acc = qmodel.accuracy(pnm::quantize_dataset(split.test, input_bits));
  if (!pnm::save_quantized_mlp(qmodel, out, name + "-" + std::to_string(weight_bits) + "b")) {
    std::cerr << "error: cannot write " << out << '\n';
    return 1;
  }
  std::cout << "trained " << name << ": " << split.train.n_features() << "->" << hidden
            << "->" << data.n_classes << ", " << weight_bits << "b weights, "
            << input_bits << "b inputs; test accuracy " << acc << "\nwrote " << out
            << '\n';
  return 0;
}

/// Splits a NAME=FILE CLI value; a plain path yields `fallback_name`.
/// (Only a '=' before any '/' counts as a name separator, so paths with
/// '=' in a directory component still work.)
std::pair<std::string, std::string> split_model_arg(const std::string& value,
                                                    const std::string& fallback_name) {
  const auto eq = value.find('=');
  if (eq != std::string::npos && eq > 0 && value.find('/') > eq) {
    return {value.substr(0, eq), value.substr(eq + 1)};
  }
  return {fallback_name, value};
}

int run_serve(const Args& args) {
  if (args.models.empty()) {
    std::cerr << "error: serve mode needs --model PATH (or --model NAME=FILE)\n";
    return 1;
  }
  pnm::serve::ServeConfig config;
  config.port = args.num<std::uint16_t>("--port", 0);
  config.reactors = args.num<std::size_t>("--reactors", 1);
  config.batch_max = args.num<std::size_t>("--batch-max", 32);
  config.batch_deadline_us = args.num<std::int64_t>("--batch-deadline-us", 200);
  config.worker_threads = args.num<std::size_t>("--threads", 2);

  auto registry = std::make_shared<pnm::serve::ModelRegistry>();
  for (const std::string& entry : args.models) {
    const auto [name, file] = split_model_arg(entry, "default");
    std::string error;
    if (!registry->register_model(name, {pnm::load_quantized_mlp(file), 0, file, {}},
                                  &error)) {
      std::cerr << "error: cannot register model '" << name << "': " << error << '\n';
      return 1;
    }
  }
  // SIGHUP target: NAME=FILE swaps that model; a plain path (or the
  // omitted default, the first --model's file) swaps the default model.
  const auto [swap_name, swap_file] = split_model_arg(
      args.get("--swap-file", split_model_arg(args.models.front(), "default").second),
      std::string());

  pnm::serve::Server server(config, registry);
  server.start();
  std::cout << "serving on port " << server.port() << " (" << config.reactors
            << " reactors, " << config.worker_threads << " workers, batch<="
            << config.batch_max << ", " << config.batch_deadline_us << "us deadline)\n";
  for (const pnm::serve::ModelStats& m : registry->stats()) {
    std::cout << "  model " << m.name << ": " << m.path << '\n';
  }
  std::cout << "SIGHUP swaps " << (swap_name.empty() ? "default" : swap_name) << " to "
            << swap_file << "; SIGINT/SIGTERM stops\n"
            << std::flush;

  if (!install_signal_handlers()) {
    std::cerr << "error: cannot install signal handlers\n";
    return 1;
  }
  while (g_stop == 0) {
    // Block until a signal pokes the self-pipe, then drain it: every
    // pending wakeup is coalesced into one pass over the flags.
    pollfd pfd{g_wake_pipe[0], POLLIN, 0};
    if (poll(&pfd, 1, -1) < 0 && errno != EINTR) break;
    unsigned char drain[64];
    while (read(g_wake_pipe[0], drain, sizeof(drain)) > 0) {
    }
    if (g_hup != 0) {
      g_hup = 0;
      std::string error;
      if (server.swap_model(swap_name, swap_file, &error)) {
        const auto live = registry->get(swap_name);
        std::cout << "swapped " << live->name << " to " << swap_file << " (version "
                  << live->version << ")\n"
                  << std::flush;
      } else {
        std::cout << "swap rejected: " << error << "\n" << std::flush;
      }
    }
  }
  const pnm::serve::MetricsSnapshot stats = server.stats();
  server.stop();
  std::cout << "served " << stats.responses_total << " responses in "
            << stats.batches_total << " batches (mean batch "
            << stats.mean_batch_size() << ", p50 " << stats.latency_percentile_us(50)
            << "us, p99 " << stats.latency_percentile_us(99) << "us)\n";
  return 0;
}

int run_loadgen(const Args& args) {
  const std::string model_path = args.get("--model");
  if (model_path.empty() || !args.has("--port")) {
    std::cerr << "error: --loadgen needs --model PATH and --port P\n";
    return 1;
  }
  const pnm::QuantizedMlp base = pnm::load_quantized_mlp(model_path);

  // Random [0,1] feature vectors: bit-exactness does not care whether the
  // inputs are realistic, only that client and offline agree on them.
  pnm::Rng rng(args.num<std::uint64_t>("--seed", 42));
  std::vector<std::vector<double>> samples(64);
  for (auto& s : samples) {
    s.resize(base.input_size());
    for (auto& v : s) v = rng.uniform();
  }

  // Keep the verify designs alive for the whole run.
  std::map<std::uint32_t, pnm::QuantizedMlp> designs;
  pnm::serve::LoadGenConfig load;
  load.port = args.num<std::uint16_t>("--port", 0);
  load.rate = args.rate.value_or(2000.0);
  load.total_requests = args.num<std::size_t>("--requests", 2000);
  load.model_name = args.get("--model-name");
  load.samples = &samples;
  for (const auto& [after, path] : args.swap_at) load.swaps[after] = path;
  if (!args.verify.empty() || !args.swap_at.empty()) {
    designs.emplace(1, base);
    for (const auto& [version, path] : args.verify) {
      designs.emplace(version, pnm::load_quantized_mlp(path));
    }
    for (const auto& [version, design] : designs) load.verify[version] = &design;
  }

  const pnm::serve::LoadGenReport report = pnm::serve::run_load(load);
  std::cout << "offered " << report.offered_rps << " rps, achieved "
            << report.achieved_rps << " rps over " << report.duration_s << "s\n"
            << "sent " << report.sent << ", received " << report.received
            << ", send failures " << report.send_failures << "\n"
            << "latency p50 " << report.p50_us << "us, p99 " << report.p99_us
            << "us, mean " << report.mean_us << "us\n";
  for (const auto& [version, count] : report.responses_by_version) {
    std::cout << "  version " << version << ": " << count << " responses\n";
  }
  if (!load.verify.empty()) {
    std::cout << "verification: " << report.mismatches << " mismatches, "
              << report.unknown_version << " unknown versions, "
              << report.swap_failures << " swap failures\n";
  }
  if (!report.ok()) {
    std::cerr << "FAIL: load run lost or mis-served responses\n";
    return 1;
  }
  std::cout << "OK\n";
  return 0;
}

int run_admin(const Args& args) {
  pnm::serve::ServeClient client;
  if (!client.connect("127.0.0.1", args.num<std::uint16_t>("--port", 0), 5)) {
    std::cerr << "error: cannot connect\n";
    return 1;
  }
  if (args.has("--stats")) {
    std::string json;
    if (!client.stats(json)) {
      std::cerr << "error: stats request failed\n";
      return 1;
    }
    std::cout << json;
    return 0;
  }
  std::string message;
  const auto [name, file] = split_model_arg(args.get("--swap"), std::string());
  const bool ok = client.swap(name, file, message);
  std::cout << (ok ? "swapped: " : "rejected: ") << message << '\n';
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.has("--train-model")) return run_train(args);
    if (args.has("--loadgen")) return run_loadgen(args);
    if (args.has("--stats") || args.has("--swap")) return run_admin(args);
    return run_serve(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}

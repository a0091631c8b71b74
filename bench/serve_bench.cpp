/// serve_bench — latency/throughput measurement and machine-checked
/// correctness gates for the multi-reactor serving layer; writes
/// BENCH_serve.json (schema v2).
///
/// The bench is a test first and a benchmark second: it exits nonzero
/// unless, for EVERY (reactor count, model) cell of the matrix
/// {1, 2, 4} reactors x {alpha, beta} models:
///   1. every server response over real loopback TCP is bit-identical to
///      the offline `predict_quantized_into` on the full test split —
///      alpha via the empty (default-model) name, beta by name;
///   2. every open-loop rate run answers every request with zero
///      mismatches (responses verified per the version that served them);
///   3. two hot-swaps per model performed *under concurrent load on both
///      models* lose or mis-serve nothing: each model's responses span
///      three versions, all bit-exact for the design their version tag
///      names, and swapping one model never moves the other's version;
///   4. the server's own counters balance exactly — the batch histogram
///      accounts for every response, per-reactor admissions sum to
///      requests_total, and per-model response counts (plus predict
///      errors) sum to responses_total.
///
/// What it records: client-side exact p50/p99/mean latency per offered
/// rate (1-reactor ladder, `serve_latency` rows) and aggregate two-model
/// throughput per reactor count (`serve_scale` rows), plus the serving
/// config (workers, batch bound, deadline, machine cores).  The
/// container pins everything to few cores, so the 2/4-reactor rows
/// record measured numbers, not a scaling claim.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "pnm/core/model_io.hpp"
#include "pnm/util/build_info.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/data/scaler.hpp"
#include "pnm/data/synth.hpp"
#include "pnm/nn/trainer.hpp"
#include "pnm/serve/client.hpp"
#include "pnm/serve/server.hpp"
#include "pnm/util/fileio.hpp"
#include "pnm/util/rng.hpp"

namespace {

using namespace pnm;
using namespace pnm::serve;

QuantizedMlp train_design(const Dataset& train, std::size_t n_classes, std::uint64_t seed,
                          const QuantSpec& spec) {
  Rng rng(seed);
  Mlp model({train.n_features(), 10, n_classes}, rng);
  TrainConfig config;
  config.epochs = 8;
  Trainer trainer(config);
  trainer.set_weight_view(make_qat_view(spec));
  trainer.fit(model, train, rng);
  return QuantizedMlp::from_float(model, spec);
}

struct RateRow {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  std::size_t requests = 0;
  std::size_t received = 0;
};

struct ScaleRow {
  std::size_t reactors = 0;
  double offered_rps = 0.0;    ///< both loadgens combined
  double achieved_rps = 0.0;   ///< both loadgens combined
  double p99_us = 0.0;         ///< worse of the two loadgens
  std::size_t requests = 0;
  std::size_t received = 0;
  std::size_t swaps = 0;
  std::size_t versions_alpha = 0;
  std::size_t versions_beta = 0;
};

int fail(const std::string& why) {
  std::cerr << "FAIL: " << why << '\n';
  return 1;
}

/// Full-test-split bit-exactness for one model over one connection.
/// \param model_name  the route every frame names ("" = the default model).
bool bit_exact_split(std::uint16_t port, const std::string& model_name,
                     const QuantizedMlp& design, const Dataset& test, std::string& why) {
  ServeClient client;
  if (!client.connect("127.0.0.1", port)) {
    why = "connect";
    return false;
  }
  InferScratch scratch;
  std::vector<std::int64_t> xq;
  PredictResponse resp;
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (!client.send_predict(static_cast<std::uint32_t>(i), test.x[i], model_name)) {
      why = "send failed at sample " + std::to_string(i);
      return false;
    }
    if (!client.read_predict(resp)) {
      why = "no response at sample " + std::to_string(i);
      return false;
    }
    quantize_input_into(test.x[i], design.input_bits(), xq);
    const std::size_t expect = design.predict_quantized_into(xq, scratch);
    if (resp.predicted_class != expect || resp.model_version != 1) {
      why = "response differs from offline predict at sample " + std::to_string(i);
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  // Sanitizer builds run this bench as a correctness gate only: offered
  // rates and request counts are scaled down by the instrumentation
  // slowdown so the open-loop generator does not outrun the server, and
  // the recorded numbers are marked unrepresentative.
  const int slow = pnm::build_info::timing_multiplier();
  if (slow > 1) {
    std::cout << "sanitizer build (" << pnm::build_info::sanitizer_name()
              << "): scaling offered load down by " << slow << "x\n";
  }

  // ---- Four deployable designs: two models x (live + swap target) ------
  const Dataset data = make_pendigits();
  Rng rng(42);
  DataSplit split = stratified_split(data, 0.6, 0.2, 0.2, rng);
  MinMaxScaler scaler;
  scale_split(split, scaler);
  const QuantSpec spec = QuantSpec::uniform(2, 5, 4);

  std::cout << "training design quad on " << data.name << " ("
            << split.train.size() << " train samples)...\n";
  const QuantizedMlp design_a = train_design(split.train, data.n_classes, 1, spec);
  const QuantizedMlp design_a_alt = train_design(split.train, data.n_classes, 2, spec);
  const QuantizedMlp design_b = train_design(split.train, data.n_classes, 3, spec);
  const QuantizedMlp design_b_alt = train_design(split.train, data.n_classes, 4, spec);

  const std::string path_a = "serve_bench_model_a.pnm";
  const std::string path_a_alt = "serve_bench_model_a_alt.pnm";
  const std::string path_b = "serve_bench_model_b.pnm";
  const std::string path_b_alt = "serve_bench_model_b_alt.pnm";
  if (!save_quantized_mlp(design_a, path_a, "bench-a") ||
      !save_quantized_mlp(design_a_alt, path_a_alt, "bench-a-alt") ||
      !save_quantized_mlp(design_b, path_b, "bench-b") ||
      !save_quantized_mlp(design_b_alt, path_b_alt, "bench-b-alt")) {
    return fail("cannot write model files");
  }

  // ---- Open-loop samples (shared by every run) -------------------------
  const std::vector<std::vector<double>> samples(
      split.test.x.begin(),
      split.test.x.begin() +
          static_cast<long>(std::min(split.test.size(), std::size_t{64})));

  ServeConfig config;
  config.batch_max = 32;
  config.batch_deadline_us = 200;
  config.worker_threads = 2;

  std::vector<RateRow> latency_rows;
  std::vector<ScaleRow> scale_rows;

  for (const std::size_t reactors : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const std::string cell = "[reactors=" + std::to_string(reactors) + "] ";
    auto registry = std::make_shared<ModelRegistry>();
    std::string error;
    if (!registry->register_model("alpha", {design_a, 0, path_a, {}}, &error) ||
        !registry->register_model("beta", {design_b, 0, path_b, {}}, &error)) {
      return fail(cell + "registry: " + error);
    }
    config.reactors = reactors;
    Server server(config, registry);
    server.start();
    std::cout << cell << "server up on port " << server.port() << " ("
              << reactors << " reactors, " << config.worker_threads
              << " workers, batch<=" << config.batch_max << ", "
              << config.batch_deadline_us << "us deadline, 2 models)\n";

    // ---- Gate 1: bit-exactness on the full test split, per model -------
    std::string why;
    if (!bit_exact_split(server.port(), "", design_a, split.test, why)) {
      return fail(cell + "alpha (default name): " + why);
    }
    if (!bit_exact_split(server.port(), "beta", design_b, split.test, why)) {
      return fail(cell + "beta (named): " + why);
    }
    std::cout << cell << "bit-exact gate: 2x" << split.test.size()
              << " test samples identical to offline inference\n";

    // ---- Gate 2: latency ladder (1-reactor rows only) ------------------
    if (reactors == 1) {
      for (const double base_rate : {2000.0, 8000.0, 20000.0}) {
        const double rate = base_rate / slow;
        LoadGenConfig load;
        load.port = server.port();
        load.rate = rate;
        load.total_requests = static_cast<std::size_t>(rate / 4.0);  // ~250ms each
        load.samples = &samples;
        load.verify[1] = &design_a;
        const LoadGenReport report = run_load(load);
        if (!report.ok()) {
          return fail(cell + "rate " + std::to_string(rate) +
                      ": sent=" + std::to_string(report.sent) +
                      " received=" + std::to_string(report.received) +
                      " mismatches=" + std::to_string(report.mismatches));
        }
        RateRow row;
        row.offered_rps = report.offered_rps;
        row.achieved_rps = report.achieved_rps;
        row.p50_us = report.p50_us;
        row.p99_us = report.p99_us;
        row.mean_us = report.mean_us;
        row.requests = report.sent;
        row.received = report.received;
        latency_rows.push_back(row);
        std::cout << cell << "rate " << rate << " rps: achieved "
                  << report.achieved_rps << " rps, p50 " << report.p50_us
                  << "us, p99 " << report.p99_us << "us (" << report.received
                  << "/" << report.sent << " verified)\n";
      }
    }

    // ---- Gate 3: concurrent per-model hot-swap storms ------------------
    // Both models take open-loop load at once; each loadgen issues two
    // swaps of ITS model mid-run and verifies every response bit-exactly
    // against the design its version tag names.  Alpha's requests and
    // swaps use the empty (default-model) name; beta's name their model.
    const std::size_t swap_requests = 3000 / static_cast<std::size_t>(slow);
    LoadGenConfig load_a;
    load_a.port = server.port();
    load_a.rate = 6000.0 / slow;
    load_a.total_requests = swap_requests;
    load_a.samples = &samples;
    load_a.swaps[swap_requests / 4] = path_a_alt;      // -> version 2
    load_a.swaps[swap_requests * 5 / 8] = path_a;      // -> version 3
    load_a.verify[1] = &design_a;
    load_a.verify[2] = &design_a_alt;
    load_a.verify[3] = &design_a;

    LoadGenConfig load_b = load_a;
    load_b.model_name = "beta";
    load_b.swaps.clear();
    load_b.swaps[swap_requests / 4] = path_b_alt;      // -> version 2
    load_b.swaps[swap_requests * 5 / 8] = path_b;      // -> version 3
    load_b.verify.clear();
    load_b.verify[1] = &design_b;
    load_b.verify[2] = &design_b_alt;
    load_b.verify[3] = &design_b;

    LoadGenReport report_a;
    LoadGenReport report_b;
    std::thread gen_a([&] { report_a = run_load(load_a); });
    std::thread gen_b([&] { report_b = run_load(load_b); });
    gen_a.join();
    gen_b.join();
    if (!report_a.ok()) {
      return fail(cell + "alpha swap storm: received=" +
                  std::to_string(report_a.received) + "/" +
                  std::to_string(report_a.sent) + " mismatches=" +
                  std::to_string(report_a.mismatches) + " unknown=" +
                  std::to_string(report_a.unknown_version) + " swap_failures=" +
                  std::to_string(report_a.swap_failures));
    }
    if (!report_b.ok()) {
      return fail(cell + "beta swap storm: received=" +
                  std::to_string(report_b.received) + "/" +
                  std::to_string(report_b.sent) + " mismatches=" +
                  std::to_string(report_b.mismatches) + " unknown=" +
                  std::to_string(report_b.unknown_version) + " swap_failures=" +
                  std::to_string(report_b.swap_failures));
    }
    if (report_a.responses_by_version.size() < 2 ||
        report_b.responses_by_version.size() < 2) {
      return fail(cell + "a swap storm never served a swapped design");
    }
    std::cout << cell << "hot-swap under load: alpha " << report_a.received << "/"
              << report_a.sent << " across " << report_a.responses_by_version.size()
              << " versions, beta " << report_b.received << "/" << report_b.sent
              << " across " << report_b.responses_by_version.size() << " versions\n";

    // Swap isolation: each model ended at version 3 with exactly its own
    // two swaps on its ledger.
    const MetricsSnapshot stats = server.stats();
    if (stats.models.size() != 2) return fail(cell + "expected 2 registry entries");
    if (stats.models[0].version != 3 || stats.models[1].version != 3) {
      return fail(cell + "per-model versions after storms: alpha=" +
                  std::to_string(stats.models[0].version) + " beta=" +
                  std::to_string(stats.models[1].version) + " (want 3 and 3)");
    }
    if (stats.models[0].swaps_ok != 2 || stats.models[1].swaps_ok != 2 ||
        stats.swaps_failed != 0) {
      return fail(cell + "per-model swap ledgers wrong");
    }

    // ---- Gate 4: the server's own accounting ---------------------------
    std::uint64_t hist_batches = 0;
    std::uint64_t hist_responses = 0;
    for (std::size_t s = 1; s < stats.batch_size_hist.size(); ++s) {
      hist_batches += stats.batch_size_hist[s];
      hist_responses += stats.batch_size_hist[s] * s;
    }
    if (hist_batches != stats.batches_total || hist_responses != stats.responses_total) {
      return fail(cell + "batch histogram does not account for every response");
    }
    if (stats.requests_by_reactor.size() != reactors) {
      return fail(cell + "requests_by_reactor has wrong width");
    }
    std::uint64_t by_reactor = 0;
    for (const std::uint64_t n : stats.requests_by_reactor) by_reactor += n;
    if (by_reactor != stats.requests_total) {
      return fail(cell + "per-reactor admissions do not sum to requests_total");
    }
    if (stats.models[0].responses + stats.models[1].responses + stats.predict_errors !=
        stats.responses_total) {
      return fail(cell + "per-model responses do not sum to responses_total");
    }
    if (stats.dropped_responses != 0 || stats.predict_errors != 0 ||
        stats.protocol_errors != 0 || stats.unknown_model != 0) {
      return fail(cell + "server reported errors during a clean run");
    }
    std::cout << cell << "server accounting: " << stats.responses_total
              << " responses in " << stats.batches_total << " batches, mean batch "
              << stats.mean_batch_size() << ", admissions by reactor sum "
              << by_reactor << "\n";

    server.stop();

    ScaleRow srow;
    srow.reactors = reactors;
    srow.offered_rps = report_a.offered_rps + report_b.offered_rps;
    srow.achieved_rps = report_a.achieved_rps + report_b.achieved_rps;
    srow.p99_us = std::max(report_a.p99_us, report_b.p99_us);
    srow.requests = report_a.sent + report_b.sent;
    srow.received = report_a.received + report_b.received;
    srow.swaps = 4;
    srow.versions_alpha = report_a.responses_by_version.size();
    srow.versions_beta = report_b.responses_by_version.size();
    scale_rows.push_back(srow);
  }

  std::remove(path_a.c_str());
  std::remove(path_a_alt.c_str());
  std::remove(path_b.c_str());
  std::remove(path_b_alt.c_str());

  // ---- BENCH_serve.json (schema v2) -------------------------------------
  std::ofstream json("BENCH_serve.json");
  if (!json) return fail("cannot write BENCH_serve.json");
  json << "[\n";
  for (const RateRow& row : latency_rows) {
    json << "  {\"bench\": \"serve_latency\", \"reactors\": 1, \"offered_rps\": "
         << format_double_roundtrip(row.offered_rps) << ", \"achieved_rps\": "
         << format_double_roundtrip(row.achieved_rps) << ", \"p50_us\": "
         << format_double_roundtrip(row.p50_us) << ", \"p99_us\": "
         << format_double_roundtrip(row.p99_us) << ", \"mean_us\": "
         << format_double_roundtrip(row.mean_us) << ", \"requests\": " << row.requests
         << ", \"received\": " << row.received << ", \"bit_exact\": true"
         << ", \"worker_threads\": " << config.worker_threads
         << ", \"batch_max\": " << config.batch_max
         << ", \"batch_deadline_us\": " << config.batch_deadline_us
         << ", \"machine_cores\": " << bench::machine_cores()
         << ", \"isa\": \"" << bench::machine_isa()
         << "\", \"sanitizer\": \"" << pnm::build_info::sanitizer_name() << "\"},\n";
  }
  for (std::size_t i = 0; i < scale_rows.size(); ++i) {
    const ScaleRow& row = scale_rows[i];
    json << "  {\"bench\": \"serve_scale\", \"reactors\": " << row.reactors
         << ", \"models\": 2, \"offered_rps\": "
         << format_double_roundtrip(row.offered_rps) << ", \"achieved_rps\": "
         << format_double_roundtrip(row.achieved_rps) << ", \"p99_us\": "
         << format_double_roundtrip(row.p99_us) << ", \"requests\": " << row.requests
         << ", \"received\": " << row.received << ", \"swaps\": " << row.swaps
         << ", \"versions_alpha\": " << row.versions_alpha
         << ", \"versions_beta\": " << row.versions_beta
         << ", \"bit_exact\": true, \"swap_isolation\": true"
         << ", \"worker_threads\": " << config.worker_threads
         << ", \"batch_max\": " << config.batch_max
         << ", \"batch_deadline_us\": " << config.batch_deadline_us
         << ", \"machine_cores\": " << bench::machine_cores()
         << ", \"isa\": \"" << bench::machine_isa()
         << "\", \"sanitizer\": \"" << pnm::build_info::sanitizer_name() << "\"}"
         << (i + 1 == scale_rows.size() ? "\n" : ",\n");
  }
  json << "]\n";
  json.close();
  std::cout << "(wrote BENCH_serve.json)\n";
  return 0;
}

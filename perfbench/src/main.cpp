/// perfbench — the repository benchmark program.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--work-dir <dir>] [--trace-out <file>]
///
/// Runs one workload through the library's public API, checks its outputs
/// (every gate failure exits 1), and prints as its last stdout line one
/// JSON object: {"correct", "attempted", "failed", "metrics"}.  --trace 0
/// reports the end-to-end metrics; --trace 1 is a separate traced run that
/// reports the per-layer metrics and writes a Chrome trace-event dump.
/// Lines starting with "perfbench-info" carry machine context and run
/// details.  perfbench/README.md describes every workload and metric.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "pnm/core/infer_simd.hpp"
#include "pnm/util/build_info.hpp"
#include "pnm/util/thread_pool.hpp"
#include "trace.hpp"

namespace {

using perfbench::Options;
using perfbench::Outcome;

struct Metric {
  const char* name;
  const char* unit;
};

/// Must match BENCHMARK.json (perfbench/selftest.py checks it).
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},       {"peak_rss_mb", "MiB"}, {"wall_s", "s"},
    {"throughput_per_s", "1/s"}, {"p50_us", "us"},  {"p90_us", "us"},
};

const std::vector<Metric> kPerLayer = {
    {"ga.self_s", "s"},
    {"ga.batches", "count"},
    {"ga.batch_genomes", "count"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.self_s", "s"},
    {"store.preload_s", "s"},
    {"store.records", "count"},
    {"store.bytes", "bytes"},
    {"store.append_us", "us"},
    {"warm.wall_s", "s"},
    {"warm.hits", "count"},
    {"pool.batch_s", "s"},
    {"pool.busy_s", "s"},
    {"pool.idle_s", "s"},
    {"pool.efficiency", "ratio"},
    {"eval.genome_us", "us"},
    {"prune.us", "us"},
    {"cluster.us", "us"},
    {"quantize.us", "us"},
    {"finetune.us", "us"},
    {"finetune.view_us", "us"},
    {"finetune.projector_us", "us"},
    {"finetune.step_us", "us"},
    {"finetune.steps", "count"},
    {"accuracy.us", "us"},
    {"infer.single_ns", "ns"},
    {"infer.block_ns", "ns"},
    {"proxy.us", "us"},
    {"netlist.build_us", "us"},
    {"netlist.analyze_us", "us"},
    {"netlist.gates", "count"},
    {"front.s", "s"},
    {"front.designs", "count"},
    {"front.gain_5pct", "x"},
    {"front.hypervolume", "acc.norm-area"},
    {"setup.prepare_s", "s"},
    {"setup.evaluators_s", "s"},
    {"batcher.batch_mean.light", "count"},
    {"batcher.batch_mean.busy", "count"},
    {"batcher.batch_mean.sat", "count"},
    {"batcher.batches.light", "count"},
    {"batcher.batches.busy", "count"},
    {"batcher.batches.sat", "count"},
    {"server.p50_us.light", "us"},
    {"server.p50_us.busy", "us"},
    {"server.p50_us.sat", "us"},
    {"server.p99_us.light", "us"},
    {"server.p99_us.busy", "us"},
    {"server.p99_us.sat", "us"},
    {"server.requests", "count"},
    {"server.responses", "count"},
    {"server.dropped", "count"},
    {"server.protocol_errors", "count"},
    {"protocol.decode_ns", "ns"},
    {"protocol.encode_ns", "ns"},
    {"wire.p50_us.light", "us"},
    {"wire.p50_us.busy", "us"},
    {"wire.p50_us.sat", "us"},
    {"quantize.stage_ns", "ns"},
    {"loadgen.late_p99_us.light", "us"},
    {"loadgen.late_p99_us.busy", "us"},
    {"loadgen.late_p99_us.sat", "us"},
    {"loadgen.sent.light", "count"},
    {"loadgen.sent.busy", "count"},
    {"loadgen.sent.sat", "count"},
    {"serve.light_p50_us", "us"},
    {"serve.light_p99_us", "us"},
    {"serve.busy_p99_us", "us"},
    {"failed_ratio", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--trace-out <file>]\n",
               why);
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  o.work_dir = ".bench_build/perfbench-work";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || o.workload.empty() || o.seconds <= 0.0) return std::nullopt;
  if (o.trace_out.empty()) {
    o.trace_out = o.work_dir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json";
  }
  return o;
}

void print_result(const Outcome& out, const std::vector<Metric>& metrics, bool with_values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const Metric& m : metrics) {
    if (!with_values) break;
    double value = 0.0;
    for (const auto& [name, v] : out.metrics) {
      if (name == m.name) value = v;
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", m.name,
                value, m.unit);
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> parsed = parse(argc, argv);
  if (!parsed) return usage("bad arguments");
  const Options& options = *parsed;

#if defined(__OPTIMIZE__)
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
  const bool timings_valid = kOptimized && pnm::build_info::timing_multiplier() == 1;
  std::printf(
      "perfbench-info {\"workload\":\"%s\",\"seed\":%llu,\"nproc\":%zu,\"isa\":\"%s\","
      "\"sanitizer\":\"%s\",\"build_type\":\"%s\",\"optimized\":%s}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      pnm::ThreadPool::default_thread_count(), pnm::simd::isa_name(pnm::simd::active_isa()),
      pnm::build_info::sanitizer_name(), PERFBENCH_BUILD_TYPE, kOptimized ? "true" : "false");

  Outcome out;
  for (const Metric& m : kEndToEnd) out.set(m.name, 0.0);
  for (const Metric& m : kPerLayer) out.set(m.name, 0.0);
  std::optional<perfbench::Tracer> tracer;
  if (options.trace) tracer.emplace();
  try {
    std::filesystem::create_directories(options.work_dir);
    if (options.workload == "ga_pendigits_cold") {
      perfbench::run_ga_workload(options, tracer ? &*tracer : nullptr, out);
    } else if (options.workload == "serve_pendigits") {
      perfbench::run_serve_workload(options, tracer ? &*tracer : nullptr, out);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
  out.set("peak_rss_mb", perfbench::peak_rss_mib());

  if (tracer) {
    if (!tracer->write_chrome_json(options.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", options.trace_out.c_str());
      out.gate(false, "trace dump not written");
    } else {
      std::printf("perfbench-info {\"trace_out\":\"%s\"}\n", options.trace_out.c_str());
    }
  }
  std::printf("perfbench-info {\"inputs_fingerprint\":\"%s\",\"timings\":%s}\n",
              out.inputs_fingerprint.c_str(), timings_valid ? "true" : "false");
  for (const std::string& why : out.gate_failures) {
    std::fprintf(stderr, "perfbench: gate failed: %s\n", why.c_str());
  }
  // Sanitizer or unoptimized builds check correctness only: no timings.
  print_result(out, options.trace ? kPerLayer : kEndToEnd, timings_valid);
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

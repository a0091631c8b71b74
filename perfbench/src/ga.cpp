/// ga_pendigits_cold: the paper's Fig. 2 NSGA-II on pendigits through the
/// campaign's evaluator stack over an empty on-disk store, with the front
/// re-evaluated on exact netlists.
///
/// Untraced runs time whole repetitions (open stores + search + front)
/// for the measurement window, then resume once from the last
/// repetition's filled store (every lookup must hit).  Traced runs put
/// span-recording Evaluator decorators between the Cached, Parallel and
/// Pipeline layers, and replay a sample of the run's own genomes through
/// the pipeline's public stage functions with a timer around each call.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "pnm/core/campaign.hpp"
#include "pnm/core/cluster.hpp"
#include "pnm/core/eval.hpp"
#include "pnm/core/eval_store.hpp"
#include "pnm/core/flow.hpp"
#include "pnm/core/prune.hpp"
#include "pnm/core/quantize.hpp"
#include "pnm/hw/bespoke.hpp"
#include "pnm/hw/mcm.hpp"
#include "pnm/hw/proxy.hpp"
#include "pnm/util/fileio.hpp"
#include "pnm/util/thread_pool.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace pnm;

constexpr const char* kDataset = "pendigits";
constexpr std::size_t kReplayGenomes = 24;  ///< stage-replay sample in the traced run

/// Fine-tuning epochs of the GA's inner-loop fitness (the campaign and
/// Fig. 2 default); the front re-evaluation uses the flow's own budget.
constexpr std::size_t kFitnessEpochs = 2;
constexpr std::size_t kMinReps = 3;

GaConfig search_config() {
  GaConfig ga;
  ga.population = 32;
  ga.generations = 20;
  return ga;
}

/// Top of a fitness or front stack: what the GA (or the front step) sees.
/// Times each batch, counts genomes and non-finite results, and keeps the
/// first distinct genomes for the traced stage replay.
class BatchProbe final : public Evaluator {
 public:
  BatchProbe(Evaluator& inner, Tracer* tracer, std::string span_name, std::size_t keep)
      : inner_(&inner), tracer_(tracer), span_name_(std::move(span_name)), keep_(keep) {}

  DesignPoint evaluate(const Genome& genome) override {
    return evaluate_batch(std::span<const Genome>(&genome, 1)).front();
  }

  std::vector<DesignPoint> evaluate_batch(std::span<const Genome> genomes) override {
    ScopedSpan span(tracer_, span_name_);
    const Clock::time_point start = Clock::now();
    genomes_ += genomes.size();
    for (const Genome& g : genomes) {
      if (kept_.size() < keep_ && kept_keys_.insert(g.key()).second) kept_.push_back(g);
    }
    std::vector<DesignPoint> points;
    try {
      points = inner_->evaluate_batch(genomes);
    } catch (...) {
      failed_ += genomes.size();
      throw;
    }
    latencies_s_.push_back(seconds_since(start));
    for (const DesignPoint& p : points) {
      if (!std::isfinite(p.accuracy) || !std::isfinite(p.area_mm2) ||
          !std::isfinite(p.power_uw) || !std::isfinite(p.delay_ms)) {
        ++failed_;
      }
    }
    return points;
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::size_t genomes() const { return genomes_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<double>& latencies_s() const { return latencies_s_; }
  [[nodiscard]] double total_s() const {
    double sum = 0.0;
    for (const double s : latencies_s_) sum += s;
    return sum;
  }
  [[nodiscard]] const std::vector<Genome>& kept() const { return kept_; }

 private:
  Evaluator* inner_;
  Tracer* tracer_;
  std::string span_name_;
  std::size_t keep_;
  std::size_t genomes_ = 0;
  std::size_t failed_ = 0;
  std::vector<double> latencies_s_;
  std::vector<Genome> kept_;
  std::set<std::string> kept_keys_;
};

/// Traced runs only: one span per batch (above the thread pool) or per
/// genome (below it, on whichever thread runs the evaluation).
class SpanEvaluator final : public Evaluator {
 public:
  SpanEvaluator(Evaluator& inner, Tracer& tracer, std::string batch_name,
                std::string genome_name)
      : inner_(&inner),
        tracer_(&tracer),
        batch_name_(std::move(batch_name)),
        genome_name_(std::move(genome_name)) {}

  DesignPoint evaluate(const Genome& genome) override {
    ScopedSpan span(tracer_, genome_name_, genome.key(), /*worker_thread=*/true);
    return inner_->evaluate(genome);
  }

  std::vector<DesignPoint> evaluate_batch(std::span<const Genome> genomes) override {
    ScopedSpan span(tracer_, batch_name_);
    tracer_->fan_out_parent.store(span.id());
    return inner_->evaluate_batch(genomes);
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  Evaluator* inner_;
  Tracer* tracer_;
  std::string batch_name_;
  std::string genome_name_;
};

/// One evaluation stack (fitness or front): pipeline -> parallel ->
/// stored+cached, with span decorators between the layers when traced.
struct Stack {
  std::optional<SpanEvaluator> genome_spans;
  std::optional<ParallelEvaluator> parallel;
  std::optional<SpanEvaluator> inner_spans;
  std::optional<EvalStore> store;
  std::optional<CachedEvaluator> cached;
  std::optional<BatchProbe> probe;

  void build(PipelineEvaluator& pipeline, ThreadPool& pool, const std::string& dir,
             const std::string& fingerprint, Tracer* tracer, const char* prefix,
             std::size_t keep) {
    const std::string p = prefix;
    Evaluator* bottom = &pipeline;
    if (tracer != nullptr) {
      genome_spans.emplace(pipeline, *tracer, "", p + ".genome");
      bottom = &*genome_spans;
    }
    parallel.emplace(*bottom, pool);
    Evaluator* above_pool = &*parallel;
    if (tracer != nullptr) {
      inner_spans.emplace(*parallel, *tracer, p + ".inner", "");
      above_pool = &*inner_spans;
    }
    store.emplace(dir, fingerprint);
    cached.emplace(*above_pool, *store);
    probe.emplace(*cached, tracer, p + ".batch", keep);
  }
};

struct Setup {
  std::unique_ptr<MinimizationFlow> flow;
  std::unique_ptr<ProxyEvaluator> fitness;     ///< validation split, GA budget
  std::unique_ptr<NetlistEvaluator> front;     ///< test split, flow budget
  std::string fitness_fp;
  std::string front_fp;
};

struct Rep {
  double wall_s = 0.0;     ///< open stores + search + front
  double preload_s = 0.0;  ///< open stores + cache preload
  double search_s = 0.0;
  double front_s = 0.0;
  std::size_t genomes = 0;        ///< requested from the fitness stack
  std::size_t front_genomes = 0;
  std::size_t batches = 0;
  std::size_t failed = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t store_records = 0;
  std::vector<double> batch_latencies_s;
  std::vector<Genome> kept;
  MinimizationFlow::GaOutcome outcome;
};

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

Setup make_setup(std::uint64_t seed, double& prepare_s, double& evaluators_s) {
  Setup s;
  FlowConfig config;
  config.dataset_name = kDataset;
  config.seed = seed;
  Clock::time_point t = Clock::now();
  s.flow = std::make_unique<MinimizationFlow>(config);
  s.flow->prepare();
  prepare_s = seconds_since(t);

  t = Clock::now();
  s.fitness = std::make_unique<ProxyEvaluator>(s.flow->proxy_evaluator(kFitnessEpochs));
  s.front = std::make_unique<NetlistEvaluator>(
      s.flow->netlist_evaluator(config.finetune_epochs, /*use_test_set=*/true));
  s.fitness_fp = eval_fingerprint(config, s.fitness->config(), "proxy");
  s.front_fp = eval_fingerprint(config, s.front->config(), "netlist");
  evaluators_s = seconds_since(t);
  return s;
}

/// One repetition: open (or create) the stores, search, re-evaluate the
/// front.  `fresh` empties the store directory first (a cold run).
Rep run_rep(Setup& s, ThreadPool& pool, const std::string& store_dir, bool fresh,
            Tracer* tracer, std::size_t keep) {
  if (fresh) {
    fs::remove_all(store_dir);
    hw::mcm_plan_cache_reset();  // cold means no process-wide plan reuse either
  }
  Rep rep;
  Stack fitness;
  Stack front;
  {
    ScopedSpan root(tracer, "rep");
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan open(tracer, "store.open");
      fitness.build(*s.fitness, pool, store_dir + "/fitness", s.fitness_fp, tracer, "fitness",
                    keep);
      front.build(*s.front, pool, store_dir + "/front", s.front_fp, tracer, "front", 0);
    }
    rep.preload_s = seconds_since(start);
    const Clock::time_point search_start = Clock::now();
    rep.outcome = s.flow->run_ga(*fitness.probe, *front.probe, search_config());
    const double run_s = seconds_since(search_start);
    rep.wall_s = seconds_since(start);
    rep.front_s = front.probe->total_s();
    rep.search_s = run_s - rep.front_s;
  }
  rep.genomes = fitness.probe->genomes();
  rep.front_genomes = front.probe->genomes();
  rep.batches = fitness.probe->latencies_s().size();
  rep.failed = fitness.probe->failed() + front.probe->failed();
  rep.hits = fitness.cached->hits() + front.cached->hits();
  rep.misses = fitness.cached->misses() + front.cached->misses();
  rep.store_records = fitness.store->size() + front.store->size();
  rep.batch_latencies_s = fitness.probe->latencies_s();
  rep.kept = fitness.probe->kept();
  return rep;
}

std::string inputs_fingerprint(const Rep& rep) {
  std::string keys;
  for (const auto& member : rep.outcome.raw.population) keys += member.genome.key() + "\n";
  return fnv1a64_hex(keys);
}

/// Stage timings of the replay, summed over the replayed genomes (ns).
struct StageTimes {
  double prune = 0, cluster = 0, fit = 0, view = 0, projector = 0, from_float = 0;
  double accuracy = 0, proxy = 0, build = 0, analyze = 0;
  double steps = 0, gates = 0;
  std::size_t genomes = 0;
};

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Replays PipelineEvaluator::evaluate stage by stage through the public
/// functions it is built from, timing each call.  Returns the design the
/// workload's fitness backend would report, for the bit-exactness gate.
DesignPoint replay_genome(const Setup& s, const Genome& genome, StageTimes& t) {
  const EvalConfig& cfg = s.fitness->config();
  const std::size_t n_layers = s.flow->float_model().layer_count();
  Mlp candidate = s.flow->float_model();
  Rng rng(cfg.seed ^ fnv1a64(genome.key()));

  std::vector<double> sparsity(n_layers);
  for (std::size_t li = 0; li < n_layers; ++li) {
    sparsity[li] = static_cast<double>(genome.sparsity_pct[li]) / 100.0;
  }
  Clock::time_point a = Clock::now();
  const PruneMask mask = magnitude_prune_per_layer(candidate, sparsity);
  Clock::time_point b = Clock::now();
  t.prune += static_cast<double>(ns_between(a, b));

  a = Clock::now();
  const ClusterAssignment clusters =
      cluster_weights(candidate, genome.clusters, rng, cfg.cluster_scope);
  b = Clock::now();
  t.cluster += static_cast<double>(ns_between(a, b));

  if (cfg.finetune_epochs > 0) {
    TrainConfig ft = cfg.train;
    ft.epochs = cfg.finetune_epochs;
    ft.lr = cfg.train.lr * 0.3;
    Trainer trainer(ft);
    QuantSpec spec;
    spec.weight_bits = genome.weight_bits;
    spec.input_bits = cfg.input_bits;
    const Trainer::WeightView view = make_qat_view(spec);
    trainer.set_weight_view([&](const Mlp& master, Mlp& v) {
      const Clock::time_point va = Clock::now();
      view(master, v);
      t.view += static_cast<double>(ns_between(va, Clock::now()));
    });
    trainer.set_projector([&](Mlp& m) {
      const Clock::time_point pa = Clock::now();
      mask.apply(m);
      clusters.project(m);
      t.projector += static_cast<double>(ns_between(pa, Clock::now()));
      t.steps += 1.0;
    });
    a = Clock::now();
    trainer.fit(candidate, s.flow->data().train, rng);
    b = Clock::now();
    t.fit += static_cast<double>(ns_between(a, b));
  }

  QuantSpec spec;
  spec.weight_bits = genome.weight_bits;
  spec.input_bits = cfg.input_bits;
  spec.acc_shift = genome.acc_shift;
  a = Clock::now();
  const QuantizedMlp qmodel = QuantizedMlp::from_float(candidate, spec);
  b = Clock::now();
  t.from_float += static_cast<double>(ns_between(a, b));

  DesignPoint point;
  point.technique = "ga";
  point.config = genome.key();
  a = Clock::now();
  point.accuracy = qmodel.accuracy(s.fitness->reporting_set());
  b = Clock::now();
  t.accuracy += static_cast<double>(ns_between(a, b));

  // The pipeline's sharing policy (share_only_when_clustered).
  hw::BespokeOptions options = cfg.bespoke;
  if (cfg.share_only_when_clustered) {
    bool any_clustered = false;
    for (const int k : genome.clusters) any_clustered |= (k > 0);
    options.share_products = any_clustered;
  }
  if (!options.share_products) options.share_subexpressions = false;

  a = Clock::now();
  point.area_mm2 = hw::estimate_area_mm2(qmodel, s.flow->tech(), options);
  b = Clock::now();
  t.proxy += static_cast<double>(ns_between(a, b));

  // The exact netlist the front re-evaluation builds for the same model,
  // timed for the hw/bespoke layer; its costs are not part of the proxy
  // fitness point.
  a = Clock::now();
  const hw::BespokeCircuit circuit(qmodel, options);
  b = Clock::now();
  t.build += static_cast<double>(ns_between(a, b));
  a = Clock::now();
  [[maybe_unused]] const double area = circuit.area_mm2(s.flow->tech());
  [[maybe_unused]] const double power = circuit.power_uw(s.flow->tech());
  [[maybe_unused]] const double delay = circuit.critical_path_ms(s.flow->tech());
  b = Clock::now();
  t.analyze += static_cast<double>(ns_between(a, b));
  t.gates += static_cast<double>(circuit.netlist().gate_count());
  ++t.genomes;
  return point;
}

/// The exact-netlist front of `rep`, re-derived serially and uncached.
bool front_matches_serial(const Setup& s, const Rep& rep) {
  NetlistEvaluator serial = s.flow->netlist_evaluator(s.flow->config().finetune_epochs,
                                                      /*use_test_set=*/true);
  std::vector<DesignPoint> points;
  for (const auto& member : rep.outcome.raw.front) points.push_back(serial.evaluate(member.genome));
  return pareto_front(std::move(points)) == rep.outcome.front;
}

void set_quality(const Setup& s, const Rep& rep, Outcome& out) {
  const DesignPoint& base = s.flow->baseline();
  out.set("front.gain_5pct",
          best_area_gain_at_loss(rep.outcome.front, base.accuracy, base.area_mm2, 0.05)
              .value_or(0.0));
  out.set("front.hypervolume",
          hypervolume(rep.outcome.front, 0.0, base.area_mm2) / base.area_mm2);
  out.set("front.designs", static_cast<double>(rep.outcome.front.size()));
}

}  // namespace

void run_ga_workload(const Options& options, Tracer* tracer, Outcome& out) {
  const std::string work = options.work_dir + "/" + options.workload;
  fs::remove_all(work);
  fs::create_directories(work);
  // One pool shared by every stack, as a campaign does.  parallel_for also
  // runs on the calling thread, so nproc - 1 workers make nproc threads.
  ThreadPool pool(std::max<std::size_t>(1, ThreadPool::default_thread_count() - 1));

  // Set-up runs before every repetition, and the last one is kept for the
  // warm resume, the gates and the stage replay.
  std::vector<double> setup_s, prepare_s, evaluators_s;
  auto set_up = [&] {
    double prep = 0.0;
    double evs = 0.0;
    Setup s = make_setup(options.seed, prep, evs);
    prepare_s.push_back(prep);
    evaluators_s.push_back(evs);
    return s;
  };
  Setup setup;

  // ---- measurement -------------------------------------------------------
  // Repetitions are gated and summarized as they finish.  Only the first
  // untraced one (the reference) and the first traced one (its genomes
  // seed the stage replay) are kept, so memory does not grow with the
  // repetition count.
  const std::string store = work + "/rep_store";
  std::optional<Rep> reference;
  std::optional<Rep> first_traced;
  std::vector<double> wall, rate, p50s, p90s, traced_wall;
  std::size_t batch_samples = 0;
  double traced_reps = 0, hits = 0, misses = 0, records = 0, batches = 0, genomes = 0;
  double front_s = 0;
  auto account = [&](Rep rep, bool is_traced) {
    if (!reference) reference = rep;
    out.gate(rep.outcome.front == reference->outcome.front,
             "a repetition's front differs from the reference front");
    out.gate(rep.failed == 0, "an evaluation threw or returned a non-finite value");
    out.attempted += rep.genomes + rep.front_genomes;
    out.failed += rep.failed;
    if (is_traced) {
      traced_reps += 1;
      hits += static_cast<double>(rep.hits);
      misses += static_cast<double>(rep.misses);
      records += static_cast<double>(rep.store_records);
      batches += static_cast<double>(rep.batches);
      genomes += static_cast<double>(rep.genomes);
      front_s += rep.front_s;
      traced_wall.push_back(rep.wall_s);
      if (!first_traced) first_traced = std::move(rep);
      return;
    }
    wall.push_back(rep.wall_s);
    rate.push_back(static_cast<double>(rep.genomes) / rep.search_s);
    // Generation latency percentiles per repetition; the median over
    // repetitions is reported, so one disturbed repetition moves nothing.
    std::vector<double> us;
    for (const double sec : rep.batch_latencies_s) us.push_back(sec * 1e6);
    batch_samples += us.size();
    p50s.push_back(percentile(us, 50.0));
    p90s.push_back(percentile(us, 90.0));
  };
  const Clock::time_point window = Clock::now();
  while (wall.size() < kMinReps || seconds_since(window) < options.seconds) {
    setup = timed_setup(setup_s, set_up);
    account(run_rep(setup, pool, store, /*fresh=*/true, nullptr, 0), false);
    if (tracer != nullptr) {
      account(run_rep(setup, pool, store, /*fresh=*/true, tracer, kReplayGenomes), true);
    }
  }

  // Warm resume: reopen the last repetition's stores and search again.
  const Rep warm = run_rep(setup, pool, store, /*fresh=*/false, nullptr, 0);
  out.gate(warm.misses == 0, "warm resume missed the cache");
  out.gate(warm.outcome.front == reference->outcome.front,
           "warm resume front differs from the cold front");
  out.attempted += warm.genomes + warm.front_genomes;
  out.failed += warm.failed;

  // ---- correctness gates ---------------------------------------------------
  out.gate(!reference->outcome.front.empty(), "empty front");
  out.gate(front_matches_serial(setup, *reference),
           "front differs from a serial, uncached netlist re-evaluation");
  out.inputs_fingerprint = inputs_fingerprint(*reference);

  // ---- end-to-end metrics ----------------------------------------------------
  out.set("setup_s", median(setup_s));
  out.set("wall_s", median(wall));
  out.set("throughput_per_s", median(rate));
  out.set("p50_us", median(p50s));
  out.set("p90_us", median(p90s));
  std::printf("perfbench-info {\"reps\":%zu,\"batch_samples\":%zu}\n", wall.size(),
              batch_samples);

  // ---- per-layer metrics (traced run) -------------------------------------
  set_quality(setup, *reference, out);
  out.set("failed_ratio", static_cast<double>(out.failed) / static_cast<double>(out.attempted));
  out.set("setup.prepare_s", median(prepare_s));
  out.set("setup.evaluators_s", median(evaluators_s));
  out.set("store.preload_s", warm.preload_s);
  out.set("warm.wall_s", warm.wall_s);
  out.set("warm.hits", static_cast<double>(warm.hits));
  if (tracer == nullptr) return;

  const std::vector<Tracer::Span> spans = tracer->spans();
  const std::vector<std::int64_t> self = Tracer::self_ns(spans);
  double rep_self = 0, batch_self = 0, inner = 0, busy = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& sp = spans[i];
    const double dur = static_cast<double>(sp.end_ns - sp.start_ns) / 1e9;
    if (sp.name == "rep") rep_self += static_cast<double>(self[i]) / 1e9;
    if (sp.name == "fitness.batch" || sp.name == "front.batch") {
      batch_self += static_cast<double>(self[i]) / 1e9;
    }
    if (sp.name == "fitness.inner" || sp.name == "front.inner") inner += dur;
    if (sp.name == "fitness.genome" || sp.name == "front.genome") busy += dur;
  }
  const double n = traced_reps;
  // parallel_for runs on the pool's workers plus the calling thread.
  const double threads = static_cast<double>(pool.size() + 1);
  out.set("ga.self_s", rep_self / n);
  out.set("ga.batches", batches / n);
  out.set("ga.batch_genomes", genomes / batches);
  out.set("cache.hits", hits / n);
  out.set("cache.misses", misses / n);
  out.set("cache.hit_ratio", hits / (hits + misses));
  out.set("cache.self_s", batch_self / n);
  out.set("store.records", records / n);
  out.set("store.bytes", static_cast<double>(dir_bytes(store)));
  out.set("pool.batch_s", inner / n);
  out.set("pool.busy_s", busy / n);
  out.set("pool.idle_s", (threads * inner - busy) / n);
  out.set("pool.efficiency", inner > 0.0 ? busy / (threads * inner) : 0.0);
  out.set("front.s", front_s / n);
  out.set("trace.overhead_ratio", median(traced_wall) / median(wall));

  // Store append replay: the traced repetition's fitness records put one
  // by one into a scratch store.
  {
    std::vector<std::pair<std::string, DesignPoint>> entries;
    {
      EvalStore source(store + "/fitness", setup.fitness_fp);
      entries = source.entries();
    }
    const std::string replay_dir = work + "/append_replay";
    fs::remove_all(replay_dir);
    EvalStore sink(replay_dir, setup.fitness_fp);
    const Clock::time_point a = Clock::now();
    for (const auto& [key, point] : entries) sink.put(key, point);
    out.set("store.append_us",
            entries.empty() ? 0.0 : seconds_since(a) * 1e6 / static_cast<double>(entries.size()));
  }

  // Stage replay of the run's own genomes, gated bit-exact against the
  // pipeline it claims to describe.
  StageTimes t;
  const std::vector<Genome>& sample = first_traced->kept;
  for (const Genome& genome : sample) {
    const DesignPoint replayed = replay_genome(setup, genome, t);
    out.gate(replayed == setup.fitness->evaluate(genome),
             "stage replay differs from PipelineEvaluator::evaluate for " + genome.key());
  }
  const double g = static_cast<double>(std::max<std::size_t>(t.genomes, 1));
  const double genome_ns = t.prune + t.cluster + t.fit + t.from_float + t.accuracy + t.proxy;
  out.set("eval.genome_us", genome_ns / g / 1e3);
  out.set("prune.us", t.prune / g / 1e3);
  out.set("cluster.us", t.cluster / g / 1e3);
  out.set("quantize.us", t.from_float / g / 1e3);
  out.set("finetune.us", t.fit / g / 1e3);
  out.set("finetune.view_us", t.view / g / 1e3);
  out.set("finetune.projector_us", t.projector / g / 1e3);
  out.set("finetune.step_us", (t.fit - t.view - t.projector) / g / 1e3);
  out.set("finetune.steps", t.steps / g);
  out.set("accuracy.us", t.accuracy / g / 1e3);
  out.set("proxy.us", t.proxy / g / 1e3);
  out.set("netlist.build_us", t.build / g / 1e3);
  out.set("netlist.analyze_us", t.analyze / g / 1e3);
  out.set("netlist.gates", t.gates / g);
  std::printf("perfbench-info {\"replayed_genomes\":%zu,\"finetune_share\":%.4f}\n", t.genomes,
              t.fit / genome_ns);
}

}  // namespace perfbench

#include "pnm/core/ga.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "pnm/core/eval.hpp"

namespace pnm {
namespace {

/// a strictly dominates b under minimization of both objectives.
bool min_dominates(const std::array<double, 2>& a, const std::array<double, 2>& b) {
  return a[0] <= b[0] && a[1] <= b[1] && (a[0] < b[0] || a[1] < b[1]);
}

int pick_choice(std::span<const int> choices, Rng& rng) {
  return choices[static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::uint64_t>(choices.size())))];
}

}  // namespace

std::string Genome::key() const {
  std::string out;
  auto emit = [&out](char tag, const std::vector<int>& v) {
    out += tag;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      char digits[12];
      const auto end = std::to_chars(digits, digits + sizeof digits, v[i]).ptr;
      out.append(digits, end);
    }
  };
  emit('b', weight_bits);
  out += '|';
  emit('s', sparsity_pct);
  out += '|';
  emit('c', clusters);
  if (!acc_shift.empty()) {
    out += '|';
    emit('t', acc_shift);
  }
  return out;
}

void GaConfig::validate() const {
  if (population < 4) throw std::invalid_argument("GaConfig: population too small");
  if (generations == 0) throw std::invalid_argument("GaConfig: zero generations");
  for (int s : acc_shift_choices) {
    if (s < 0 || s > 12) throw std::invalid_argument("GaConfig: acc shift out of [0,12]");
  }
}

Genome random_genome(std::size_t n_layers, Rng& rng,
                     const std::vector<int>& acc_shift_choices) {
  const bool explore_shift = !acc_shift_choices.empty();
  Genome genome;
  genome.weight_bits.resize(n_layers);
  genome.sparsity_pct.resize(n_layers);
  genome.clusters.resize(n_layers);
  if (explore_shift) genome.acc_shift.resize(n_layers);
  for (std::size_t li = 0; li < n_layers; ++li) {
    genome.weight_bits[li] = rng.uniform_int(kMinWeightBits, kMaxWeightBits);
    genome.sparsity_pct[li] = pick_choice(kSparsityChoices, rng);
    genome.clusters[li] = pick_choice(kClusterChoices, rng);
    if (explore_shift) genome.acc_shift[li] = pick_choice(acc_shift_choices, rng);
  }
  return genome;
}

std::vector<std::vector<std::size_t>> fast_non_dominated_sort(
    const std::vector<std::array<double, 2>>& objectives) {
  const std::size_t n = objectives.size();
  std::vector<std::vector<std::size_t>> dominated_by(n);
  std::vector<std::size_t> domination_count(n, 0);
  std::vector<std::vector<std::size_t>> fronts(1);

  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      if (min_dominates(objectives[p], objectives[q])) {
        dominated_by[p].push_back(q);
      } else if (min_dominates(objectives[q], objectives[p])) {
        domination_count[p]++;
      }
    }
    if (domination_count[p] == 0) fronts[0].push_back(p);
  }
  std::size_t i = 0;
  while (!fronts[i].empty()) {
    std::vector<std::size_t> next;
    for (std::size_t p : fronts[i]) {
      for (std::size_t q : dominated_by[p]) {
        if (--domination_count[q] == 0) next.push_back(q);
      }
    }
    ++i;
    fronts.push_back(std::move(next));
  }
  fronts.pop_back();  // drop the trailing empty front
  return fronts;
}

std::vector<double> crowding_distances(
    const std::vector<std::array<double, 2>>& objectives,
    const std::vector<std::size_t>& front) {
  const std::size_t m = front.size();
  std::vector<double> distance(m, 0.0);
  if (m <= 2) {
    std::fill(distance.begin(), distance.end(),
              std::numeric_limits<double>::infinity());
    return distance;
  }
  std::vector<std::size_t> order(m);
  for (std::size_t i = 0; i < m; ++i) order[i] = i;
  for (int obj = 0; obj < 2; ++obj) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return objectives[front[a]][static_cast<std::size_t>(obj)] <
             objectives[front[b]][static_cast<std::size_t>(obj)];
    });
    const double lo = objectives[front[order.front()]][static_cast<std::size_t>(obj)];
    const double hi = objectives[front[order.back()]][static_cast<std::size_t>(obj)];
    distance[order.front()] = std::numeric_limits<double>::infinity();
    distance[order.back()] = std::numeric_limits<double>::infinity();
    if (hi <= lo) continue;  // degenerate objective: no interior spread
    for (std::size_t i = 1; i + 1 < m; ++i) {
      const double below = objectives[front[order[i - 1]]][static_cast<std::size_t>(obj)];
      const double above = objectives[front[order[i + 1]]][static_cast<std::size_t>(obj)];
      distance[order[i]] += (above - below) / (hi - lo);
    }
  }
  return distance;
}

GaResult nsga2_search(const GaConfig& config, std::size_t n_layers,
                      Evaluator& evaluate, Rng& rng) {
  config.validate();
  if (n_layers == 0) throw std::invalid_argument("nsga2_search: zero layers");

  // Per-run memo: distinct designs are evaluated exactly once, so the
  // batches below carry only a generation's genuinely new candidates.
  std::unordered_map<std::string, GenomeFitness> memo;
  std::size_t evaluations = 0;
  auto fitness_of_all = [&](const std::vector<Genome>& genomes) {
    std::vector<Genome> fresh;
    for (const Genome& genome : genomes) {
      const std::string key = genome.key();
      if (memo.find(key) == memo.end()) {
        memo.emplace(key, GenomeFitness{});  // claims the key: dedup within batch
        fresh.push_back(genome);
      }
    }
    if (!fresh.empty()) {
      const std::vector<DesignPoint> points = evaluate.evaluate_batch(fresh);
      for (std::size_t i = 0; i < fresh.size(); ++i) {
        memo[fresh[i].key()] = GenomeFitness{points[i].accuracy, points[i].area_mm2};
      }
      evaluations += fresh.size();
    }
    std::vector<GenomeFitness> fitness;
    fitness.reserve(genomes.size());
    for (const Genome& genome : genomes) fitness.push_back(memo.at(genome.key()));
    return fitness;
  };

  const bool explore_shift = !config.acc_shift_choices.empty();

  auto mutate = [&](Genome& genome) {
    for (std::size_t li = 0; li < n_layers; ++li) {
      if (rng.bernoulli(kMutationProb)) {
        genome.weight_bits[li] = rng.uniform_int(kMinWeightBits, kMaxWeightBits);
      }
      if (rng.bernoulli(kMutationProb)) {
        genome.sparsity_pct[li] = pick_choice(kSparsityChoices, rng);
      }
      if (rng.bernoulli(kMutationProb)) {
        genome.clusters[li] = pick_choice(kClusterChoices, rng);
      }
      if (explore_shift && rng.bernoulli(kMutationProb)) {
        genome.acc_shift[li] = pick_choice(config.acc_shift_choices, rng);
      }
    }
  };

  auto crossover = [&](const Genome& a, const Genome& b) {
    Genome child = a;
    for (std::size_t li = 0; li < n_layers; ++li) {
      if (rng.bernoulli(0.5)) child.weight_bits[li] = b.weight_bits[li];
      if (rng.bernoulli(0.5)) child.sparsity_pct[li] = b.sparsity_pct[li];
      if (rng.bernoulli(0.5)) child.clusters[li] = b.clusters[li];
      if (explore_shift && rng.bernoulli(0.5)) child.acc_shift[li] = b.acc_shift[li];
    }
    return child;
  };

  // --- initial population ----------------------------------------------
  // Seed the two corners of the space (conservative / aggressive) so the
  // first front already spans the trade-off, then fill randomly.
  std::vector<Genome> population;
  population.reserve(config.population);
  {
    Genome conservative;
    conservative.weight_bits.assign(n_layers, kMaxWeightBits);
    conservative.sparsity_pct.assign(n_layers, kSparsityChoices.front());
    conservative.clusters.assign(n_layers, kClusterChoices.front());
    if (explore_shift) {
      conservative.acc_shift.assign(
          n_layers, *std::min_element(config.acc_shift_choices.begin(),
                                      config.acc_shift_choices.end()));
    }
    population.push_back(std::move(conservative));
    Genome aggressive;
    aggressive.weight_bits.assign(n_layers, kMinWeightBits);
    aggressive.sparsity_pct.assign(n_layers, kSparsityChoices.back());
    int smallest_on = 0;
    for (int c : kClusterChoices) {
      if (c > 0 && (smallest_on == 0 || c < smallest_on)) smallest_on = c;
    }
    aggressive.clusters.assign(n_layers, smallest_on);
    if (explore_shift) {
      aggressive.acc_shift.assign(
          n_layers, *std::max_element(config.acc_shift_choices.begin(),
                                      config.acc_shift_choices.end()));
    }
    population.push_back(std::move(aggressive));
  }
  while (population.size() < config.population) {
    population.push_back(random_genome(n_layers, rng, config.acc_shift_choices));
  }

  std::vector<GenomeFitness> fitness = fitness_of_all(population);

  auto objectives_of = [](const std::vector<GenomeFitness>& fits) {
    std::vector<std::array<double, 2>> objs(fits.size());
    for (std::size_t i = 0; i < fits.size(); ++i) {
      objs[i] = {-fits[i].accuracy, fits[i].area_mm2};
    }
    return objs;
  };

  for (std::size_t gen = 0; gen < config.generations; ++gen) {
    const auto objs = objectives_of(fitness);
    const auto fronts = fast_non_dominated_sort(objs);

    // Rank and crowding for tournament selection.
    std::vector<std::size_t> rank(population.size(), 0);
    std::vector<double> crowd(population.size(), 0.0);
    for (std::size_t f = 0; f < fronts.size(); ++f) {
      const auto dist = crowding_distances(objs, fronts[f]);
      for (std::size_t i = 0; i < fronts[f].size(); ++i) {
        rank[fronts[f][i]] = f;
        crowd[fronts[f][i]] = dist[i];
      }
    }
    auto tournament = [&]() -> const Genome& {
      const std::size_t a = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::uint64_t>(population.size())));
      const std::size_t b = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::uint64_t>(population.size())));
      if (rank[a] != rank[b]) return population[rank[a] < rank[b] ? a : b];
      return population[crowd[a] >= crowd[b] ? a : b];
    };

    // Offspring.
    std::vector<Genome> offspring;
    offspring.reserve(config.population);
    while (offspring.size() < config.population) {
      Genome child = rng.bernoulli(kCrossoverProb)
                         ? crossover(tournament(), tournament())
                         : tournament();
      mutate(child);
      offspring.push_back(std::move(child));
    }

    // Combined environmental selection.
    std::vector<Genome> combined = population;
    combined.insert(combined.end(), offspring.begin(), offspring.end());
    const std::vector<GenomeFitness> combined_fit = fitness_of_all(combined);
    const auto combined_objs = objectives_of(combined_fit);
    const auto combined_fronts = fast_non_dominated_sort(combined_objs);

    std::vector<Genome> next_pop;
    std::vector<GenomeFitness> next_fit;
    next_pop.reserve(config.population);
    for (const auto& front : combined_fronts) {
      if (next_pop.size() >= config.population) break;
      if (next_pop.size() + front.size() <= config.population) {
        for (std::size_t idx : front) {
          next_pop.push_back(combined[idx]);
          next_fit.push_back(combined_fit[idx]);
        }
      } else {
        const auto dist = crowding_distances(combined_objs, front);
        std::vector<std::size_t> order(front.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&dist](std::size_t a, std::size_t b) { return dist[a] > dist[b]; });
        for (std::size_t i : order) {
          if (next_pop.size() >= config.population) break;
          next_pop.push_back(combined[front[i]]);
          next_fit.push_back(combined_fit[front[i]]);
        }
      }
    }
    population = std::move(next_pop);
    fitness = std::move(next_fit);
  }

  // Final front.
  GaResult result;
  const auto objs = objectives_of(fitness);
  const auto fronts = fast_non_dominated_sort(objs);
  for (std::size_t idx : fronts.front()) {
    result.front.push_back(EvaluatedGenome{population[idx], fitness[idx]});
  }
  std::sort(result.front.begin(), result.front.end(),
            [](const EvaluatedGenome& a, const EvaluatedGenome& b) {
              return a.fitness.area_mm2 < b.fitness.area_mm2;
            });
  for (std::size_t i = 0; i < population.size(); ++i) {
    result.population.push_back(EvaluatedGenome{population[i], fitness[i]});
  }
  result.evaluations = evaluations;
  return result;
}

}  // namespace pnm

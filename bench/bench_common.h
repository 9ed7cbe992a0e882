// Shared helpers for the experiment harnesses in bench/. Each binary
// regenerates one table or figure of the paper; these helpers provide the
// datasets, the machine pass, and HIT-generation utilities they all share.
#ifndef CROWDER_BENCH_BENCH_COMMON_H_
#define CROWDER_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/crowder.h"

namespace crowder {
namespace bench {

// Environment-variable knobs shared by the scale-configurable harnesses
// (bench_stream, bench_e2e_stream, ...): missing/empty means the fallback;
// any other value must parse whole within [lo, hi] (ParseNumber), or the
// harness exits 2 naming the variable.
template <typename T>
T EnvNumber(const char* name, T fallback, T lo = std::numeric_limits<T>::lowest(),
            T hi = std::numeric_limits<T>::max()) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const Result<T> parsed = ParseNumber<T>(value, name, lo, hi);
  if (!parsed.ok()) {
    std::cerr << parsed.status().ToString() << "\n";
    std::exit(2);
  }
  return *parsed;
}

inline std::string EnvString(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value && *value ? value : fallback;
}

inline const data::Dataset& Restaurant() {
  static const data::Dataset kDataset = data::GenerateRestaurant({}).ValueOrDie();
  return kDataset;
}

inline const data::Dataset& Product() {
  static const data::Dataset kDataset = data::GenerateProduct({}).ValueOrDie();
  return kDataset;
}

inline const data::Dataset& ProductDup() {
  static const data::Dataset kDataset = data::GenerateProductDup({}).ValueOrDie();
  return kDataset;
}

/// Machine pass (Jaccard over record token sets) at the given threshold.
inline std::vector<similarity::ScoredPair> MachinePairs(const data::Dataset& dataset,
                                                        double threshold) {
  return core::HybridWorkflow::MachinePass(dataset, similarity::SetMeasure::kJaccard, threshold)
      .ValueOrDie();
}

/// Builds the pair graph for a candidate set.
inline graph::PairGraph BuildGraph(const data::Dataset& dataset,
                                   const std::vector<similarity::ScoredPair>& pairs) {
  std::vector<graph::Edge> edges;
  edges.reserve(pairs.size());
  for (const auto& p : pairs) edges.push_back({p.a, p.b});
  return graph::PairGraph::Create(static_cast<uint32_t>(dataset.table.num_records()), edges)
      .ValueOrDie();
}

/// Number of cluster-based HITs one algorithm produces (validates the cover
/// in debug builds).
inline size_t CountClusterHits(hitgen::ClusterAlgorithm algorithm, const data::Dataset& dataset,
                               const std::vector<similarity::ScoredPair>& pairs, uint32_t k,
                               uint64_t seed = 42) {
  graph::PairGraph graph = BuildGraph(dataset, pairs);
  hitgen::ClusterGeneratorOptions options;
  options.seed = seed;
  auto generator = hitgen::MakeClusterGenerator(algorithm, options);
  auto hits = generator->Generate(&graph, k).ValueOrDie();
  return hits.size();
}

/// Generates the cluster HITs with the two-tiered approach.
inline std::vector<hitgen::ClusterBasedHit> TwoTieredHits(
    const data::Dataset& dataset, const std::vector<similarity::ScoredPair>& pairs, uint32_t k) {
  graph::PairGraph graph = BuildGraph(dataset, pairs);
  hitgen::TwoTieredGenerator generator;
  return generator.Generate(&graph, k).ValueOrDie();
}

/// The §7.4 pair-vs-cluster experimental setup: cluster HITs at k=10 via the
/// two-tiered approach, and pair HITs sized so both methods produce the same
/// number of HITs (cost parity — P16 / P28 in the paper).
struct PairVsClusterSetup {
  std::vector<similarity::ScoredPair> pairs;
  std::vector<hitgen::ClusterBasedHit> cluster_hits;
  std::vector<hitgen::PairBasedHit> pair_hits;
  uint32_t pairs_per_hit = 0;
  crowd::CrowdContext context;  // pairs/entity_of point into this struct & dataset
};

inline PairVsClusterSetup MakePairVsClusterSetup(const data::Dataset& dataset,
                                                 double threshold, uint32_t k = 10) {
  PairVsClusterSetup out;
  out.pairs = MachinePairs(dataset, threshold);
  out.cluster_hits = TwoTieredHits(dataset, out.pairs, k);
  out.pairs_per_hit = static_cast<uint32_t>(
      (out.pairs.size() + out.cluster_hits.size() - 1) / out.cluster_hits.size());
  std::vector<graph::Edge> edges;
  for (const auto& p : out.pairs) edges.push_back({p.a, p.b});
  out.pair_hits = hitgen::GeneratePairHits(edges, out.pairs_per_hit).ValueOrDie();
  return out;
}

inline crowd::CrowdContext ContextFor(const data::Dataset& dataset,
                                      const PairVsClusterSetup& setup) {
  crowd::CrowdContext context;
  context.pairs = &setup.pairs;
  context.entity_of = &dataset.truth.entity_of;
  return context;
}

inline void Banner(const std::string& title) {
  std::cout << "\n================================================================\n"
            << title << "\n"
            << "================================================================\n";
}

inline std::string Pct(double fraction, int digits = 1) {
  return FormatDouble(100.0 * fraction, digits) + "%";
}

}  // namespace bench
}  // namespace crowder

#endif  // CROWDER_BENCH_BENCH_COMMON_H_

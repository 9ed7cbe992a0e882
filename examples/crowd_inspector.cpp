// Inspecting the crowd: run the workflow, then look inside — per-worker
// quality estimates recovered by Dawid-Skene EM (does it spot the
// spammers?), the effect of aggregation choices, and the final entity
// clusters produced from the confirmed pairs.
//
//   build/examples/crowd_inspector
#include <algorithm>
#include <iostream>

#include "core/crowder.h"

using namespace crowder;

int main() {
  std::cout << "== CrowdER: inspecting the crowd and the final entities ==\n\n";

  data::RestaurantConfig data_config;
  data_config.num_records = 400;
  data_config.num_duplicate_pairs = 60;
  data_config.num_chains = 12;
  auto dataset = data::GenerateRestaurant(data_config).ValueOrDie();

  core::WorkflowConfig config;
  config.likelihood_threshold = 0.35;
  config.cluster_size = 8;
  config.seed = 99;
  auto result = core::HybridWorkflow(config).Run(dataset).ValueOrDie();

  // ---- The raw votes. The workflow aggregates from its own disk-backed
  // vote table and returns only the ranked list, so put the same two-tiered
  // HITs to the same simulated platform (model and seed) directly: every
  // HIT draws from its own seed, so these are the votes the workflow saw.
  const auto pairs = core::HybridWorkflow::MachinePass(dataset, config.measure,
                                                       config.likelihood_threshold)
                         .ValueOrDie();
  std::vector<graph::Edge> edges;
  for (const auto& p : pairs) edges.push_back({p.a, p.b});
  auto graph =
      graph::PairGraph::Create(static_cast<uint32_t>(dataset.table.num_records()), edges)
          .ValueOrDie();
  const auto hits = hitgen::TwoTieredGenerator().Generate(&graph, config.cluster_size).ValueOrDie();
  crowd::CrowdContext context;
  context.pairs = &pairs;
  context.entity_of = &dataset.truth.entity_of;
  const auto crowd_run =
      crowd::CrowdPlatform(config.crowd, config.seed).RunClusterHits(hits, context).ValueOrDie();

  // ---- Worker quality as estimated by EM (no ground truth involved). ----
  auto em = aggregate::RunDawidSkene(crowd_run.votes).ValueOrDie();
  std::cout << "EM converged after " << em.iterations << " iterations; estimated match prior "
            << FormatDouble(em.class_prior, 3) << "\n\n";

  std::vector<std::pair<uint32_t, aggregate::WorkerQuality>> workers(em.workers.begin(),
                                                                     em.workers.end());
  std::sort(workers.begin(), workers.end(), [](const auto& x, const auto& y) {
    return x.second.sensitivity + x.second.specificity <
           y.second.sensitivity + y.second.specificity;
  });
  std::cout << "least trusted workers (EM estimates; spammers should float here):\n";
  eval::TablePrinter low({"worker", "sensitivity", "specificity", "votes"});
  for (size_t i = 0; i < std::min<size_t>(5, workers.size()); ++i) {
    low.AddRow({"w" + std::to_string(workers[i].first),
                FormatDouble(workers[i].second.sensitivity, 2),
                FormatDouble(workers[i].second.specificity, 2),
                std::to_string(workers[i].second.num_votes)});
  }
  std::cout << low.Render() << "\n";

  // ---- Aggregation comparison. ----
  auto mv = aggregate::MajorityVote(crowd_run.votes);
  size_t disagreements = 0;
  for (size_t i = 0; i < mv.size(); ++i) {
    disagreements += (mv[i] >= 0.5) != (em.match_probability[i] >= 0.5);
  }
  std::cout << "majority vote vs EM disagree on " << disagreements << " of " << mv.size()
            << " pairs\n\n";

  // ---- Entity clustering from confirmed pairs. ----
  core::ResolutionOptions res_options;
  auto clusters = core::ResolveEntities(
                      static_cast<uint32_t>(dataset.table.num_records()), result.ranked,
                      res_options)
                      .ValueOrDie();
  const auto quality = core::EvaluateClusters(clusters, dataset);
  std::cout << "entities: " << clusters.num_clusters() << " clusters ("
            << clusters.num_duplicate_groups() << " duplicate groups) from "
            << dataset.table.num_records() << " records\n";
  std::cout << "pairwise clustering quality: precision "
            << FormatDouble(100 * quality.precision, 1) << "%, recall "
            << FormatDouble(100 * quality.recall, 1) << "%, F1 "
            << FormatDouble(100 * quality.f1, 1) << "%\n";

  const data::Table merged = core::MergeClusters(dataset.table, clusters);
  std::cout << "merged table: " << merged.num_records() << " canonical records (removed "
            << dataset.table.num_records() - merged.num_records() << " duplicates)\n";
  return 0;
}

// Deduplicating a single-source table (the paper's Restaurant scenario):
// generate the Restaurant-like dataset, run the full hybrid workflow at the
// paper's operating point (threshold 0.35, cluster size 10), and report the
// quality, cost and latency numbers §7.3 reports.
//
//   build/examples/dedup_restaurants
#include <iostream>

#include "core/crowder.h"

using namespace crowder;

int main() {
  std::cout << "== CrowdER: deduplicating a restaurant table ==\n\n";

  data::RestaurantConfig data_config;
  auto dataset = data::GenerateRestaurant(data_config).ValueOrDie();
  std::cout << "dataset: " << dataset.table.num_records() << " records, "
            << WithThousands(dataset.CountAdmissiblePairs()) << " possible pairs, "
            << dataset.CountMatchingPairs() << " true duplicate pairs\n";

  // The paper's Restaurant operating point (§7.3): likelihood threshold
  // 0.35, cluster-based HITs of up to 10 records, 3 assignments each,
  // Dawid-Skene aggregation.
  core::WorkflowConfig config;
  config.likelihood_threshold = 0.35;
  config.cluster_size = 10;
  config.seed = 7;

  auto result = core::HybridWorkflow(config).Run(dataset).ValueOrDie();

  std::cout << "\nmachine pass @ " << config.likelihood_threshold << ": "
            << WithThousands(result.num_candidate_pairs) << " pairs kept ("
            << FormatDouble(100.0 * result.machine_recall, 1) << "% of duplicates survive)\n";
  std::cout << "cluster-based HITs (two-tiered, k=" << config.cluster_size
            << "): " << result.crowd_stats.num_hits << "\n";
  std::cout << "crowd: " << result.crowd_stats.num_assignments << " assignments by "
            << result.crowd_stats.num_distinct_workers << " workers, cost $"
            << FormatDouble(result.crowd_stats.cost_dollars, 2) << ", finished in "
            << FormatDouble(result.crowd_stats.total_seconds / 3600.0, 1) << "h\n";

  std::cout << "\nquality of the final ranked list:\n";
  std::cout << "  precision@recall70: "
            << FormatDouble(100 * eval::PrecisionAtRecall(result.pr_curve, 0.7), 1) << "%\n";
  std::cout << "  precision@recall90: "
            << FormatDouble(100 * eval::PrecisionAtRecall(result.pr_curve, 0.9), 1) << "%\n";
  std::cout << "  best F1:            " << FormatDouble(100 * eval::BestF1(result.pr_curve), 1)
            << "%\n";

  // Show a few confirmed duplicates as record text.
  std::cout << "\nsample confirmed duplicates:\n";
  int shown = 0;
  for (const auto& rp : result.ranked) {
    if (rp.score < 0.5 || shown >= 5) break;
    std::cout << "  [" << (rp.is_match ? "true " : "FALSE") << "] \""
              << dataset.table.ConcatenatedRecord(rp.a) << "\"\n          vs \""
              << dataset.table.ConcatenatedRecord(rp.b) << "\"\n";
    ++shown;
  }
  return 0;
}

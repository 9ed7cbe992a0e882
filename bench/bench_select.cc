// Adaptive question selection (core/question_policy.h) vs the fixed-order
// baseline: the crowd-cost reduction the inferred-answer closure buys, and
// the F1 it buys it at, on Restaurant and a scaled duplicate-chain Product
// dataset. Both runs go through the defended pipeline (worker filtering on,
// pair-based HITs, Dawid-Skene) and are averaged over several seeds so the
// comparison is not one draw of the simulated crowd. Emits a JSON block for
// BENCH_select.json and exits nonzero if adaptive fails the acceptance bar
// on either dataset: strictly fewer crowd assignments at equal-or-better
// mean F1.
//
// The second section is the Mazumdar–Saha query-complexity yardstick
// (PAPERS.md, "A Theoretical Analysis of First Heuristics of Crowdsourced
// Entity Resolution"): clustering the n' records of the candidate graph
// into its k' ground-truth clusters needs at least n'-k' pairwise queries
// even from a perfect oracle (a spanning forest of the clusters), and
// Theta(n'k') in the noisy no-side-information regime. The yardstick runs
// the adaptive policy at increasing crowd noise (spammer fraction of the
// worker pool) and reports #questions against both bounds — how much of
// the gap to the noiseless bound the inferred-answer closure recovers, and
// how far the machine pass's side information keeps us from the n'k'
// regime. Observational: the curve is recorded, not gated.
//
// Environment knobs (smoke defaults in parentheses):
//   CROWDER_SELECT_RESTAURANT_SCALE  Restaurant scale_factor (1)
//   CROWDER_SELECT_PRODUCT_SCALE     ProductDup scale_factor (2)
//   CROWDER_SELECT_SEEDS             seeds per config, averaged (3)
//   CROWDER_SELECT_THREADS           num_threads for every run (1)
#include <set>

#include "bench/bench_common.h"

namespace crowder {
namespace bench {
namespace {

struct PolicyNumbers {
  double mean_f1 = 0.0;
  uint64_t assignments = 0;  // summed over seeds
  uint64_t hits = 0;
  uint64_t pairs_asked = 0;
  uint64_t pairs_inferred = 0;
  double seconds = 0.0;
};

PolicyNumbers RunPolicy(const data::Dataset& dataset, double threshold, uint32_t threads,
                        uint64_t num_seeds, core::QuestionPolicyKind policy) {
  PolicyNumbers out;
  WallTimer timer;
  for (uint64_t seed = 1; seed <= num_seeds; ++seed) {
    core::WorkflowConfig config;
    config.likelihood_threshold = threshold;
    config.hit_type = core::HitType::kPairBased;
    config.pairs_per_hit = 10;
    config.filter_workers = true;
    config.num_threads = threads;
    config.question_policy = policy;
    config.seed = seed;
    const auto result = core::HybridWorkflow(config).Run(dataset).ValueOrDie();
    out.mean_f1 += eval::BestF1(result.pr_curve);
    out.assignments += result.crowd_stats.num_assignments;
    out.hits += result.crowd_stats.num_hits;
    out.pairs_asked += result.crowd_pairs_asked;
    out.pairs_inferred += result.pairs_inferred;
  }
  out.mean_f1 /= static_cast<double>(num_seeds);
  out.seconds = timer.ElapsedSeconds();
  return out;
}

// Runs fixed vs adaptive on one dataset, prints the comparison, appends the
// JSON block, and returns whether adaptive met the acceptance bar.
bool Compare(const std::string& label, const data::Dataset& dataset, double threshold,
             uint32_t threads, uint64_t num_seeds, std::string* json) {
  const PolicyNumbers fixed = RunPolicy(dataset, threshold, threads, num_seeds,
                                        core::QuestionPolicyKind::kFixedOrder);
  const PolicyNumbers adaptive = RunPolicy(dataset, threshold, threads, num_seeds,
                                           core::QuestionPolicyKind::kInferenceOrdered);

  const bool cheaper = adaptive.assignments < fixed.assignments;
  const bool as_good = adaptive.mean_f1 >= fixed.mean_f1;
  const double saved = 1.0 - static_cast<double>(adaptive.pairs_asked) /
                                 static_cast<double>(fixed.pairs_asked);
  std::cout << label << " (" << WithThousands(dataset.table.num_records()) << " records, "
            << num_seeds << " seeds):\n";
  std::cout << "  fixed:    " << WithThousands(fixed.pairs_asked) << " pairs asked, "
            << WithThousands(fixed.assignments) << " assignments, mean best F1 "
            << Pct(fixed.mean_f1) << " (" << FormatDouble(fixed.seconds, 1) << " s)\n";
  std::cout << "  adaptive: " << WithThousands(adaptive.pairs_asked) << " pairs asked + "
            << WithThousands(adaptive.pairs_inferred) << " inferred ("
            << Pct(saved) << " fewer questions), " << WithThousands(adaptive.assignments)
            << " assignments, mean best F1 " << Pct(adaptive.mean_f1) << " ("
            << FormatDouble(adaptive.seconds, 1) << " s)\n";
  std::cout << "  verdict:  " << (cheaper && as_good ? "PASS" : "FAIL")
            << " (cheaper: " << (cheaper ? "yes" : "no")
            << ", F1 equal-or-better: " << (as_good ? "yes" : "no") << ")\n";

  *json += "  \"" + label + "\": {\n";
  *json += "    \"records\": " + std::to_string(dataset.table.num_records()) + ",\n";
  *json += "    \"threshold\": " + FormatDouble(threshold, 2) + ",\n";
  *json += "    \"seeds\": " + std::to_string(num_seeds) + ",\n";
  *json += "    \"fixed_pairs_asked\": " + std::to_string(fixed.pairs_asked) + ",\n";
  *json += "    \"fixed_assignments\": " + std::to_string(fixed.assignments) + ",\n";
  *json += "    \"fixed_mean_best_f1\": " + FormatDouble(fixed.mean_f1, 4) + ",\n";
  *json += "    \"adaptive_pairs_asked\": " + std::to_string(adaptive.pairs_asked) + ",\n";
  *json += "    \"adaptive_pairs_inferred\": " + std::to_string(adaptive.pairs_inferred) + ",\n";
  *json += "    \"adaptive_assignments\": " + std::to_string(adaptive.assignments) + ",\n";
  *json += "    \"adaptive_mean_best_f1\": " + FormatDouble(adaptive.mean_f1, 4) + ",\n";
  *json += "    \"questions_saved_fraction\": " + FormatDouble(saved, 4) + ",\n";
  *json += std::string("    \"pass\": ") + (cheaper && as_good ? "true" : "false") + "\n";
  *json += "  }";
  return cheaper && as_good;
}

// ---- Mazumdar–Saha query-complexity yardstick. ----

// Ground-truth cluster structure of the candidate graph — the universe the
// crowd actually clusters after the machine pass prunes everything else.
struct ClusterBounds {
  uint64_t nodes = 0;             // n': records in >= 1 candidate pair
  uint64_t clusters = 0;          // k': ground-truth entities among them
  uint64_t noiseless_bound = 0;   // n' - k': perfect-oracle spanning forest
  uint64_t noisy_regime_bound = 0;  // n' * k': no-side-information regime
};

ClusterBounds CandidateClusterBounds(const data::Dataset& dataset, double threshold) {
  const auto candidates =
      core::HybridWorkflow::MachinePass(dataset, similarity::SetMeasure::kJaccard, threshold)
          .ValueOrDie();
  std::vector<bool> in_graph(dataset.table.num_records(), false);
  for (const auto& pair : candidates) in_graph[pair.a] = in_graph[pair.b] = true;
  std::set<uint32_t> entities;
  ClusterBounds bounds;
  for (uint32_t id = 0; id < in_graph.size(); ++id) {
    if (!in_graph[id]) continue;
    ++bounds.nodes;
    entities.insert(dataset.truth.entity_of[id]);
  }
  bounds.clusters = entities.size();
  bounds.noiseless_bound = bounds.nodes - bounds.clusters;
  bounds.noisy_regime_bound = bounds.nodes * bounds.clusters;
  return bounds;
}

// One point on the noise curve: the adaptive policy with the given spammer
// fraction (honest workers keep their default reliable:noisy composition).
PolicyNumbers RunAtNoise(const data::Dataset& dataset, double threshold, uint32_t threads,
                         uint64_t num_seeds, double spammer_fraction) {
  PolicyNumbers out;
  WallTimer timer;
  for (uint64_t seed = 1; seed <= num_seeds; ++seed) {
    core::WorkflowConfig config;
    config.likelihood_threshold = threshold;
    config.hit_type = core::HitType::kPairBased;
    config.pairs_per_hit = 10;
    config.filter_workers = true;
    config.num_threads = threads;
    config.question_policy = core::QuestionPolicyKind::kInferenceOrdered;
    config.seed = seed;
    const double honest = 1.0 - spammer_fraction;
    config.crowd.reliable_fraction = honest * (0.66 / 0.92);
    config.crowd.noisy_fraction = honest * (0.26 / 0.92);
    const auto result = core::HybridWorkflow(config).Run(dataset).ValueOrDie();
    out.mean_f1 += eval::BestF1(result.pr_curve);
    out.assignments += result.crowd_stats.num_assignments;
    out.pairs_asked += result.crowd_pairs_asked;
    out.pairs_inferred += result.pairs_inferred;
  }
  out.mean_f1 /= static_cast<double>(num_seeds);
  out.seconds = timer.ElapsedSeconds();
  return out;
}

void QueryComplexityCurve(const data::Dataset& dataset, double threshold, uint32_t threads,
                          uint64_t num_seeds, std::string* json) {
  const ClusterBounds bounds = CandidateClusterBounds(dataset, threshold);
  std::cout << "\nquery-complexity yardstick (productdup candidate graph): n' = "
            << WithThousands(bounds.nodes) << " records, k' = " << WithThousands(bounds.clusters)
            << " clusters\n";
  std::cout << "  noiseless lower bound n'-k' = " << WithThousands(bounds.noiseless_bound)
            << ", noisy no-side-info regime n'*k' = " << WithThousands(bounds.noisy_regime_bound)
            << "\n";

  *json += ",\n  \"query_complexity\": {\n";
  *json += "    \"candidate_nodes\": " + std::to_string(bounds.nodes) + ",\n";
  *json += "    \"candidate_clusters\": " + std::to_string(bounds.clusters) + ",\n";
  *json += "    \"noiseless_lower_bound\": " + std::to_string(bounds.noiseless_bound) + ",\n";
  *json += "    \"noisy_regime_bound\": " + std::to_string(bounds.noisy_regime_bound) + ",\n";
  *json += "    \"curve\": [\n";
  const double fractions[] = {0.0, 0.1, 0.2, 0.3};
  for (size_t i = 0; i < 4; ++i) {
    const double f = fractions[i];
    const PolicyNumbers point = RunAtNoise(dataset, threshold, threads, num_seeds, f);
    // Seed-averaged questions, so the ratio compares one run to the bound.
    const double asked = static_cast<double>(point.pairs_asked) / static_cast<double>(num_seeds);
    const double ratio = bounds.noiseless_bound == 0
                             ? 0.0
                             : asked / static_cast<double>(bounds.noiseless_bound);
    std::cout << "  spammers " << Pct(f) << ": " << FormatDouble(asked, 1)
              << " pairs asked/seed (" << FormatDouble(ratio, 2) << "x the noiseless bound, "
              << Pct(asked / static_cast<double>(bounds.noisy_regime_bound))
              << " of the n'*k' regime), mean best F1 " << Pct(point.mean_f1) << "\n";
    *json += "      {\"spammer_fraction\": " + FormatDouble(f, 2) +
             ", \"pairs_asked_per_seed\": " + FormatDouble(asked, 1) +
             ", \"pairs_inferred\": " + std::to_string(point.pairs_inferred) +
             ", \"assignments\": " + std::to_string(point.assignments) +
             ", \"ratio_to_noiseless_bound\": " + FormatDouble(ratio, 3) +
             ", \"mean_best_f1\": " + FormatDouble(point.mean_f1, 4) + "}" +
             (i + 1 < 4 ? "," : "") + "\n";
  }
  *json += "    ]\n  }";
}

int Main() {
  const double restaurant_scale = EnvNumber("CROWDER_SELECT_RESTAURANT_SCALE", 1.0);
  const double product_scale = EnvNumber("CROWDER_SELECT_PRODUCT_SCALE", 2.0);
  const uint64_t num_seeds = EnvNumber<uint64_t>("CROWDER_SELECT_SEEDS", 3);
  const uint32_t threads = EnvNumber<uint32_t>("CROWDER_SELECT_THREADS", 1, 0, exec::kMaxThreads);

  Banner("Adaptive question selection vs fixed order (restaurant scale " +
         FormatDouble(restaurant_scale, 1) + ", productdup scale " +
         FormatDouble(product_scale, 1) + ", " + std::to_string(num_seeds) +
         " seeds, threads " + std::to_string(threads) + ")");

  data::RestaurantConfig restaurant_config;
  restaurant_config.scale_factor = restaurant_scale;
  const data::Dataset restaurant = data::GenerateRestaurant(restaurant_config).ValueOrDie();
  // The duplicate-chain Product variant: chains make the pair graph's
  // components non-trivial, which is what transitive inference feeds on
  // (plain Product's candidate components at this threshold are isolated
  // edges — nothing to infer).
  data::ProductDupConfig product_config;
  product_config.scale_factor = product_scale;
  product_config.product.scale_factor = product_scale;
  const data::Dataset product = data::GenerateProductDup(product_config).ValueOrDie();

  std::string json;
  const bool restaurant_ok = Compare("restaurant", restaurant, 0.3, threads, num_seeds, &json);
  json += ",\n";
  const bool product_ok = Compare("productdup", product, 0.5, threads, num_seeds, &json);
  QueryComplexityCurve(product, 0.5, threads, num_seeds, &json);

  std::cout << "\nJSON for BENCH_select.json:\n{\n" << json << "\n}\n";
  return restaurant_ok && product_ok ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace crowder

int main() { return crowder::bench::Main(); }

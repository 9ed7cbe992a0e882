// Ablation ABL-5: active learning vs CrowdER's direct verification, under
// the same human-label budget. The paper's related work (§8) positions
// active learning [1,24] as the other way to spend human effort on ER:
// label few informative pairs to train a better *machine*, instead of
// verifying many candidate pairs directly. This bench gives both the same
// simulated labeler budget on Product and compares the resulting quality.
#include "bench/bench_common.h"
#include "common/timer.h"
#include "ml/active_learning.h"
#include "ml/features.h"

namespace crowder {
namespace bench {
namespace {

std::vector<eval::PrPoint> ActiveCurve(const data::Dataset& dataset, size_t label_budget) {
  const auto candidates = MachinePairs(dataset, 0.1);
  auto featurizer = ml::PairFeaturizer::Create(dataset.table.records, {0}).ValueOrDie();
  std::vector<std::vector<double>> features;
  features.reserve(candidates.size());
  for (const auto& p : candidates) features.push_back(featurizer.Features(p.a, p.b));

  ml::ActiveLearningOptions options;
  options.max_labels = label_budget;
  options.initial_sample = std::min<size_t>(20, label_budget / 2);
  auto result = ml::RunActiveLearning(
                    features,
                    [&](size_t i) {
                      // The oracle is a (perfectly accurate) human labeling
                      // one pair; a crowd oracle would add noise.
                      return dataset.truth.IsMatch(candidates[i].a, candidates[i].b);
                    },
                    options)
                    .ValueOrDie();

  std::vector<eval::RankedPair> ranked;
  ranked.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    ranked.push_back({candidates[i].a, candidates[i].b, result.scores[i],
                      dataset.truth.IsMatch(candidates[i].a, candidates[i].b)});
  }
  return eval::PrCurve(std::move(ranked), dataset.CountMatchingPairs()).ValueOrDie();
}

}  // namespace
}  // namespace bench
}  // namespace crowder

int main() {
  using namespace crowder;
  WallTimer timer;
  const auto& dataset = bench::Product();

  bench::Banner("Ablation: active learning vs hybrid verification (Product)");

  eval::TablePrinter table({"method", "human labels", "P@R=70%", "P@R=90%", "best F1"});
  for (size_t budget : {100u, 300u, 1000u}) {
    const auto curve = bench::ActiveCurve(dataset, budget);
    table.AddRow({"active-SVM", std::to_string(budget),
                  bench::Pct(eval::PrecisionAtRecall(curve, 0.7)),
                  bench::Pct(eval::PrecisionAtRecall(curve, 0.9)),
                  bench::Pct(eval::BestF1(curve))});
  }

  // CrowdER at threshold 0.2: the crowd labels every candidate pair
  // (3 assignments each), so its "label budget" is pairs * 3.
  core::WorkflowConfig config;
  config.likelihood_threshold = 0.2;
  config.cluster_size = 10;
  config.seed = 2012;
  auto hybrid = core::HybridWorkflow(config).Run(dataset).ValueOrDie();
  table.AddRow({"CrowdER hybrid",
                std::to_string(hybrid.num_candidate_pairs * 3) + " (votes)",
                bench::Pct(eval::PrecisionAtRecall(hybrid.pr_curve, 0.7)),
                bench::Pct(eval::PrecisionAtRecall(hybrid.pr_curve, 0.9)),
                bench::Pct(eval::BestF1(hybrid.pr_curve))});
  std::cout << table.Render();
  std::cout << "Reading: on vocabulary-mismatch data (Product), a better-trained\n"
               "machine still cannot separate matches whose text barely overlaps —\n"
               "active learning plateaus well below the hybrid's quality, which is\n"
               "the paper's argument for spending people on verification instead.\n";

  std::cout << "\n[ablation_active done in " << FormatDouble(timer.ElapsedSeconds(), 1)
            << "s]\n";
  return 0;
}

// Integration tests: the full hybrid workflow end to end, plus the budget
// planner extension.
#include <gtest/gtest.h>

#include "core/budget_planner.h"
#include "core/workflow.h"
#include "data/generators.h"
#include "eval/metrics.h"

namespace crowder {
namespace core {
namespace {

data::Dataset SmallRestaurant() {
  data::RestaurantConfig config;
  config.num_records = 120;
  config.num_duplicate_pairs = 20;
  config.num_chains = 4;
  config.seed = 3;
  return data::GenerateRestaurant(config).ValueOrDie();
}

TEST(MachinePassTest, ThresholdMonotonicity) {
  const auto ds = SmallRestaurant();
  size_t prev = 0;
  for (double t : {0.5, 0.4, 0.3, 0.2}) {
    auto pairs = HybridWorkflow::MachinePass(ds, similarity::SetMeasure::kJaccard, t)
                     .ValueOrDie();
    EXPECT_GE(pairs.size(), prev);
    prev = pairs.size();
    for (const auto& p : pairs) EXPECT_GE(p.score, t);
  }
}

TEST(MachinePassTest, CrossSourceOnlyForProduct) {
  data::ProductConfig config;
  config.num_abt = 30;
  config.num_buy = 35;
  config.num_matching_pairs = 25;
  const auto ds = data::GenerateProduct(config).ValueOrDie();
  auto pairs = HybridWorkflow::MachinePass(ds, similarity::SetMeasure::kJaccard, 0.1)
                   .ValueOrDie();
  for (const auto& p : pairs) {
    EXPECT_NE(ds.table.sources[p.a], ds.table.sources[p.b]);
  }
}

TEST(WorkflowTest, EndToEndClusterBased) {
  const auto ds = SmallRestaurant();
  WorkflowConfig config;
  config.likelihood_threshold = 0.35;
  config.cluster_size = 6;
  config.seed = 17;
  auto result = HybridWorkflow(config).Run(ds);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->num_candidate_pairs, 0u);
  EXPECT_GT(result->machine_recall, 0.8);
  EXPECT_GT(result->crowd_stats.num_hits, 0u);
  EXPECT_EQ(result->crowd_stats.num_assignments,
            result->crowd_stats.num_hits * config.crowd.assignments_per_hit);
  // The crowd should clean up the machine candidates: high best-F1. (The
  // ceiling is the machine pass's recall at this threshold; on a 120-record
  // sample that caps F1 well below 1.)
  EXPECT_GT(eval::BestF1(result->pr_curve), 0.78);
}

TEST(WorkflowTest, EndToEndPairBased) {
  const auto ds = SmallRestaurant();
  WorkflowConfig config;
  config.likelihood_threshold = 0.35;
  config.hit_type = HitType::kPairBased;
  config.pairs_per_hit = 8;
  config.seed = 17;
  auto result = HybridWorkflow(config).Run(ds);
  ASSERT_TRUE(result.ok());
  const size_t expected_hits =
      (result->num_candidate_pairs + 7) / 8;  // ceil(|P| / pairs_per_hit)
  EXPECT_EQ(result->crowd_stats.num_hits, expected_hits);
  EXPECT_GT(eval::BestF1(result->pr_curve), 0.78);
}

TEST(WorkflowTest, DeterministicGivenSeed) {
  const auto ds = SmallRestaurant();
  WorkflowConfig config;
  config.likelihood_threshold = 0.4;
  config.seed = 5;
  auto r1 = HybridWorkflow(config).Run(ds).ValueOrDie();
  auto r2 = HybridWorkflow(config).Run(ds).ValueOrDie();
  ASSERT_EQ(r1.ranked.size(), r2.ranked.size());
  for (size_t i = 0; i < r1.ranked.size(); ++i) {
    EXPECT_EQ(r1.ranked[i].a, r2.ranked[i].a);
    EXPECT_EQ(r1.ranked[i].score, r2.ranked[i].score);
  }
  EXPECT_EQ(r1.crowd_stats.total_seconds, r2.crowd_stats.total_seconds);
}

TEST(WorkflowTest, MajorityVoteAggregationWorksToo) {
  const auto ds = SmallRestaurant();
  WorkflowConfig config;
  config.likelihood_threshold = 0.4;
  config.aggregation = AggregationMethod::kMajorityVote;
  auto result = HybridWorkflow(config).Run(ds);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(eval::BestF1(result->pr_curve), 0.8);
}

TEST(WorkflowTest, HigherThresholdFewerHits) {
  const auto ds = SmallRestaurant();
  WorkflowConfig low;
  low.likelihood_threshold = 0.3;
  WorkflowConfig high = low;
  high.likelihood_threshold = 0.5;
  auto r_low = HybridWorkflow(low).Run(ds).ValueOrDie();
  auto r_high = HybridWorkflow(high).Run(ds).ValueOrDie();
  EXPECT_GE(r_low.crowd_stats.num_hits, r_high.crowd_stats.num_hits);
  EXPECT_GE(r_low.machine_recall, r_high.machine_recall);
}

TEST(WorkflowTest, QualificationTestImprovesQualityUnderHeavySpam) {
  const auto ds = SmallRestaurant();
  WorkflowConfig spammy;
  spammy.likelihood_threshold = 0.35;
  spammy.seed = 23;
  spammy.crowd.reliable_fraction = 0.35;
  spammy.crowd.noisy_fraction = 0.20;  // 45% spammers
  WorkflowConfig gated = spammy;
  gated.crowd.qualification_test = true;

  auto r_spam = HybridWorkflow(spammy).Run(ds).ValueOrDie();
  auto r_gated = HybridWorkflow(gated).Run(ds).ValueOrDie();
  EXPECT_GE(eval::BestF1(r_gated.pr_curve), eval::BestF1(r_spam.pr_curve));
  EXPECT_LT(static_cast<double>(r_gated.crowd_stats.num_spammer_assignments),
            static_cast<double>(std::max(1u, r_spam.crowd_stats.num_spammer_assignments)));
}

TEST(WorkflowTest, ConfigValidationRejectsBadValues) {
  WorkflowConfig config;
  config.likelihood_threshold = 1.5;
  EXPECT_FALSE(ValidateWorkflowConfig(config).ok());
  config = WorkflowConfig{};
  config.cluster_size = 1;
  EXPECT_FALSE(ValidateWorkflowConfig(config).ok());
  config = WorkflowConfig{};
  config.cluster_size = 4294967295u;  // a k-sized allocation must not happen
  const Status huge_k = ValidateWorkflowConfig(config);
  EXPECT_TRUE(huge_k.IsInvalidArgument());
  EXPECT_NE(huge_k.message().find("cluster_size"), std::string::npos);
  config = WorkflowConfig{};
  config.cluster_size = kMaxHitSize;
  EXPECT_TRUE(ValidateWorkflowConfig(config).ok());
  config = WorkflowConfig{};
  config.pairs_per_hit = 0;
  EXPECT_FALSE(ValidateWorkflowConfig(config).ok());
  config = WorkflowConfig{};
  config.pairs_per_hit = kMaxHitSize + 1;
  EXPECT_FALSE(ValidateWorkflowConfig(config).ok());
  config = WorkflowConfig{};
  config.crowd.assignments_per_hit = 0;
  EXPECT_FALSE(ValidateWorkflowConfig(config).ok());
  config = WorkflowConfig{};
  config.crowd.pool_size = 2;  // < 3 assignments
  EXPECT_FALSE(ValidateWorkflowConfig(config).ok());
  config = WorkflowConfig{};
  config.crowd.reliable_fraction = 0.8;
  config.crowd.noisy_fraction = 0.5;  // sums > 1
  EXPECT_FALSE(ValidateWorkflowConfig(config).ok());
  EXPECT_TRUE(ValidateWorkflowConfig(WorkflowConfig{}).ok());
}

TEST(WorkflowTest, ProductScaleIntegration) {
  // Full Product dataset at the paper's operating point: a calibration
  // regression test — the hybrid must clearly beat the machine pass alone.
  const auto ds = data::GenerateProduct({}).ValueOrDie();
  WorkflowConfig config;
  config.likelihood_threshold = 0.2;
  config.cluster_size = 10;
  config.seed = 2012;
  auto result = HybridWorkflow(config).Run(ds).ValueOrDie();
  EXPECT_GT(result.machine_recall, 0.9);
  EXPECT_GT(result.crowd_stats.num_hits, 100u);
  EXPECT_GT(eval::BestF1(result.pr_curve), 0.9);
  EXPECT_GT(eval::PrecisionAtRecall(result.pr_curve, 0.9), 0.9);
}

TEST(WorkflowTest, ProductDupScaleIntegration) {
  const auto ds = data::GenerateProductDup({}).ValueOrDie();
  WorkflowConfig config;
  config.likelihood_threshold = 0.2;
  config.cluster_size = 10;
  config.seed = 2012;
  auto result = HybridWorkflow(config).Run(ds).ValueOrDie();
  // Every match survives the machine pass in Product+Dup (token swaps keep
  // Jaccard at 1), so the crowd sees all of them.
  EXPECT_NEAR(result.machine_recall, 1.0, 1e-12);
  EXPECT_GT(eval::BestF1(result.pr_curve), 0.97);
}

TEST(WorkflowTest, DatasetWithoutMatchesRejected) {
  data::Dataset ds;
  ds.table.attribute_names = {"a"};
  ds.table.records = {{"x"}, {"y"}};
  ds.truth.entity_of = {0, 1};
  WorkflowConfig config;
  EXPECT_FALSE(HybridWorkflow(config).Run(ds).ok());
}

TEST(BudgetPlannerTest, PicksRecallOptimalPointWithinBudget) {
  const auto ds = SmallRestaurant();
  WorkflowConfig base;
  base.cluster_size = 6;
  auto plan = PlanForBudget(ds, /*budget=*/100.0, base, {0.5, 0.4, 0.3});
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->feasible);
  EXPECT_EQ(plan->evaluated.size(), 3u);
  // Generous budget: no evaluated point has better recall than the choice,
  // and recall ties resolve to the cheaper (higher-threshold) point.
  for (const auto& pt : plan->evaluated) {
    EXPECT_LE(pt.machine_recall, plan->chosen.machine_recall + 1e-12);
    if (pt.machine_recall == plan->chosen.machine_recall) {
      EXPECT_GE(pt.num_hits, plan->chosen.num_hits);
    }
  }
}

TEST(BudgetPlannerTest, TightBudgetPicksHigherThreshold) {
  const auto ds = SmallRestaurant();
  WorkflowConfig base;
  base.cluster_size = 6;
  auto generous = PlanForBudget(ds, 1000.0, base, {0.5, 0.3}).ValueOrDie();
  // Budget just below the 0.3 plan's cost forces 0.5.
  double cost_03 = 0.0;
  for (const auto& pt : generous.evaluated) {
    if (pt.threshold == 0.3) cost_03 = pt.cost_dollars;
  }
  auto tight = PlanForBudget(ds, cost_03 - 0.01, base, {0.5, 0.3}).ValueOrDie();
  EXPECT_TRUE(tight.feasible);
  EXPECT_NEAR(tight.chosen.threshold, 0.5, 1e-12);
}

TEST(BudgetPlannerTest, InfeasibleBudget) {
  const auto ds = SmallRestaurant();
  WorkflowConfig base;
  auto plan = PlanForBudget(ds, 0.0001, base, {0.5}).ValueOrDie();
  EXPECT_FALSE(plan.feasible);
}

TEST(BudgetPlannerTest, RejectsBadArguments) {
  const auto ds = SmallRestaurant();
  WorkflowConfig base;
  EXPECT_FALSE(PlanForBudget(ds, 10.0, base, {}).ok());
  EXPECT_FALSE(PlanForBudget(ds, -5.0, base, {0.3}).ok());
  base.cluster_size = 4294967295u;  // rejected before any HIT generation
  const auto huge_k = PlanForBudget(ds, 10.0, base, {0.3});
  EXPECT_TRUE(huge_k.status().IsInvalidArgument());
  EXPECT_NE(huge_k.status().message().find("cluster_size"), std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace crowder

// The adversarial sweep acceptance test: with >= 30% of the pool hostile
// (independent spammers, colluding rings, sleepers) and votes delivered out
// of order through the async adapter, the defense pipeline — approval-rate
// filtering + retroactive vote revision + repair rounds for the pairs the
// bans starved — must recover at least 90% of the clean crowd's best F1,
// while the undefended run degrades. The same sweep passes in partitioned
// streaming mode under a forced memory budget. Both sweeps run with pair-based
// and with cluster-based HITs (whose repair rounds post pair HITs over the
// cluster round's context).
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/workflow.h"
#include "data/generators.h"
#include "eval/metrics.h"

namespace crowder {
namespace core {
namespace {

data::Dataset SweepDataset() {
  data::RestaurantConfig config;
  config.num_records = 400;
  config.num_duplicate_pairs = 80;
  config.num_chains = 8;
  config.seed = 13;
  return data::GenerateRestaurant(config).ValueOrDie();
}

WorkflowConfig SweepConfig(HitType hit_type) {
  WorkflowConfig config;
  config.likelihood_threshold = 0.35;
  config.hit_type = hit_type;
  config.pairs_per_hit = 10;
  config.seed = 42;
  return config;
}

// 36% of the pool is hostile: 15% independent spammers (the unallocated
// remainder), 13% colluding ring members, 8% sleepers.
void MakeHostile(crowd::CrowdModel* crowd) {
  crowd->reliable_fraction = 0.46;
  crowd->noisy_fraction = 0.18;
  crowd->colluder_fraction = 0.13;
  crowd->sleeper_fraction = 0.08;
}

double RunBestF1(const WorkflowConfig& config, const data::Dataset& dataset,
                 WorkflowResult* result_out = nullptr) {
  auto result = HybridWorkflow(config).Run(dataset);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return 0.0;
  const double f1 = eval::BestF1(result->pr_curve);
  if (result_out != nullptr) *result_out = std::move(*result);
  return f1;
}

class AdversarialSweepTest : public ::testing::TestWithParam<HitType> {};

TEST_P(AdversarialSweepTest, FilteredPipelineRecoversCleanF1UnfilteredDegrades) {
  const auto dataset = SweepDataset();

  WorkflowResult clean_result;
  const double clean_f1 = RunBestF1(SweepConfig(GetParam()), dataset, &clean_result);
  ASSERT_GT(clean_f1, 0.5) << "clean baseline must be meaningful";

  // Undefended hostile crowd, votes arriving out of order: measurably worse.
  WorkflowConfig hostile = SweepConfig(GetParam());
  MakeHostile(&hostile.crowd);
  hostile.async_crowd = true;
  WorkflowResult unfiltered_result;
  const double unfiltered_f1 = RunBestF1(hostile, dataset, &unfiltered_result);
  EXPECT_LT(unfiltered_f1, clean_f1 - 0.02);
  EXPECT_TRUE(unfiltered_result.filtered_workers.empty());

  // Same hostile crowd with the defenses on: filter + revision + repair.
  WorkflowConfig defended = hostile;
  defended.filter_workers = true;
  WorkflowResult defended_result;
  const double defended_f1 = RunBestF1(defended, dataset, &defended_result);
  EXPECT_GE(defended_f1, 0.9 * clean_f1)
      << "defended " << defended_f1 << " vs clean " << clean_f1;
  EXPECT_GT(defended_f1, unfiltered_f1);

  // The defense actually engaged: workers were banned, repair rounds were
  // posted for the starved pairs (more than the single materialized round),
  // and the bans cover a meaningful share of the hostile ~36% of 150.
  EXPECT_GE(defended_result.filtered_workers.size(), 20u);
  EXPECT_GT(defended_result.crowd_rounds.size(), 1u);

  // Inter-rater agreement is surfaced per round, and the hostile crowd's
  // kappa is visibly below the clean crowd's.
  ASSERT_FALSE(clean_result.crowd_rounds.empty());
  ASSERT_FALSE(unfiltered_result.crowd_rounds.empty());
  EXPECT_LT(unfiltered_result.crowd_rounds[0].fleiss_kappa,
            clean_result.crowd_rounds[0].fleiss_kappa);
}

TEST_P(AdversarialSweepTest, StreamingSweepPassesUnderForcedMemoryBudget) {
  const auto dataset = SweepDataset();
  const double clean_f1 = RunBestF1(SweepConfig(GetParam()), dataset);

  WorkflowConfig defended = SweepConfig(GetParam());
  MakeHostile(&defended.crowd);
  defended.async_crowd = true;
  defended.filter_workers = true;
  defended.execution_mode = ExecutionMode::kStreaming;
  defended.memory_budget_bytes = 8 * 1024;  // forces the vote-shard spill path

  WorkflowResult result;
  const double defended_f1 = RunBestF1(defended, dataset, &result);
  EXPECT_GE(defended_f1, 0.9 * clean_f1)
      << "streaming defended " << defended_f1 << " vs clean " << clean_f1;
  EXPECT_GE(result.filtered_workers.size(), 20u);
  // The budget was real: votes round-tripped through spill shards.
  EXPECT_GT(result.pipeline_stats.vote_spilled_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(HitTypes, AdversarialSweepTest,
                         ::testing::Values(HitType::kPairBased, HitType::kClusterBased),
                         [](const ::testing::TestParamInfo<HitType>& info) {
                           return info.param == HitType::kPairBased ? std::string("PairHits")
                                                                    : std::string("ClusterHits");
                         });

}  // namespace
}  // namespace core
}  // namespace crowder

// Tests for the crowd audit trail (assignment records) and dataset
// statistics profiling.
#include <gtest/gtest.h>

#include <set>

#include "crowd/platform.h"
#include "data/generators.h"
#include "data/statistics.h"
#include "hitgen/pair_hit_generator.h"

namespace crowder {
namespace {

struct Fixture {
  std::vector<similarity::ScoredPair> pairs;
  std::vector<uint32_t> entity_of;
  crowd::CrowdContext Context() const { return {&pairs, &entity_of}; }
};

Fixture MakeFixture() {
  Fixture f;
  f.entity_of = {1, 1, 2, 2, 3, 3};
  f.pairs = {{0, 1, 0.8}, {2, 3, 0.7}, {4, 5, 0.6}, {0, 2, 0.4}};
  return f;
}

TEST(AssignmentAuditTest, OneRecordPerAssignment) {
  const Fixture f = MakeFixture();
  crowd::CrowdModel model;
  crowd::CrowdPlatform platform(model, 3);
  std::vector<graph::Edge> edges{{0, 1}, {2, 3}, {4, 5}, {0, 2}};
  auto hits = hitgen::GeneratePairHits(edges, 2).ValueOrDie();
  auto run = platform.RunPairHits(hits, f.Context()).ValueOrDie();
  EXPECT_EQ(run.assignments.size(), run.num_assignments);
  for (size_t i = 0; i < run.assignments.size(); ++i) {
    EXPECT_GT(run.assignments[i].duration_seconds, 0.0);
    EXPECT_LT(run.assignments[i].hit, hits.size());
  }
}

TEST(AssignmentAuditTest, DistinctWorkersPerHitInLog) {
  const Fixture f = MakeFixture();
  crowd::CrowdPlatform platform(crowd::CrowdModel{}, 5);
  std::vector<hitgen::ClusterBasedHit> hits{{{0, 1, 2}}, {{2, 3, 4, 5}}};
  auto run = platform.RunClusterHits(hits, f.Context()).ValueOrDie();
  std::map<uint32_t, std::set<uint32_t>> workers_per_hit;
  for (const auto& rec : run.assignments) {
    EXPECT_TRUE(workers_per_hit[rec.hit].insert(rec.worker).second)
        << "worker " << rec.worker << " did HIT " << rec.hit << " twice";
  }
}

TEST(AssignmentAuditTest, SpammerFlagsMatchCount) {
  const Fixture f = MakeFixture();
  crowd::CrowdModel model;
  model.reliable_fraction = 0.4;
  model.noisy_fraction = 0.2;  // 40% spammers
  crowd::CrowdPlatform platform(model, 11);
  std::vector<hitgen::ClusterBasedHit> hits{{{0, 1, 2, 3, 4, 5}}};
  auto run = platform.RunClusterHits(hits, f.Context()).ValueOrDie();
  uint32_t flagged = 0;
  for (const auto& rec : run.assignments) flagged += rec.by_spammer;
  EXPECT_EQ(flagged, run.num_spammer_assignments);
}

TEST(AssignmentAuditTest, ComparisonsSumMatchesTotal) {
  const Fixture f = MakeFixture();
  crowd::CrowdPlatform platform(crowd::CrowdModel{}, 13);
  std::vector<hitgen::ClusterBasedHit> hits{{{0, 1, 2, 3}}, {{4, 5}}};
  auto run = platform.RunClusterHits(hits, f.Context()).ValueOrDie();
  uint64_t sum = 0;
  for (const auto& rec : run.assignments) sum += rec.comparisons;
  EXPECT_EQ(sum, run.total_comparisons);
}

TEST(DatasetStatisticsTest, ProfilesSmallDataset) {
  data::Dataset ds;
  ds.name = "tiny";
  ds.table.attribute_names = {"name"};
  ds.table.records = {{"apple ipod"}, {"apple ipod"}, {"sony tv"}};
  ds.truth.entity_of = {0, 0, 1};
  auto stats = data::ComputeStatistics(ds).ValueOrDie();
  EXPECT_EQ(stats.num_records, 3u);
  EXPECT_EQ(stats.num_matching_pairs, 1u);
  EXPECT_EQ(stats.num_admissible_pairs, 3u);
  EXPECT_NEAR(stats.avg_tokens_per_record, 2.0, 1e-12);
  EXPECT_EQ(stats.distinct_tokens, 4u);  // apple, ipod, sony, tv
  ASSERT_EQ(stats.match_similarities.size(), 1u);
  EXPECT_EQ(stats.match_similarities[0], 1.0);  // identical records
  EXPECT_EQ(stats.MatchRecallAt(0.5), 1.0);
  EXPECT_EQ(stats.MatchSimilarityMedian(), 1.0);
}

TEST(DatasetStatisticsTest, RecallCeilingMatchesMachinePassShape) {
  // The statistics' recall ceiling at threshold t must equal the fraction
  // of matches the machine pass keeps at t (same similarity definition).
  data::RestaurantConfig config;
  config.num_records = 120;
  config.num_duplicate_pairs = 20;
  config.num_chains = 3;
  auto ds = data::GenerateRestaurant(config).ValueOrDie();
  auto stats = data::ComputeStatistics(ds).ValueOrDie();
  EXPECT_EQ(stats.match_similarities.size(), 20u);
  // Ceilings are monotone decreasing in the threshold.
  EXPECT_GE(stats.MatchRecallAt(0.2), stats.MatchRecallAt(0.4));
  EXPECT_GE(stats.MatchRecallAt(0.4), stats.MatchRecallAt(0.6));
  // Deciles ascend.
  for (size_t i = 1; i < stats.match_similarity_deciles.size(); ++i) {
    EXPECT_GE(stats.match_similarity_deciles[i], stats.match_similarity_deciles[i - 1]);
  }
}

TEST(DatasetStatisticsTest, RenderContainsKeyFigures) {
  data::Dataset ds;
  ds.table.attribute_names = {"n"};
  ds.table.records = {{"a b"}, {"a b"}};
  ds.truth.entity_of = {0, 0};
  auto stats = data::ComputeStatistics(ds).ValueOrDie();
  const std::string text = data::RenderStatistics(stats, "demo");
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("matching pairs"), std::string::npos);
  EXPECT_NE(text.find("recall ceiling"), std::string::npos);
}

TEST(DatasetStatisticsTest, EmptyMatchListSafe) {
  data::Dataset ds;
  ds.table.attribute_names = {"n"};
  ds.table.records = {{"a"}, {"b"}};
  ds.truth.entity_of = {0, 1};
  auto stats = data::ComputeStatistics(ds).ValueOrDie();
  EXPECT_EQ(stats.MatchSimilarityMedian(), 0.0);
  EXPECT_EQ(stats.MatchRecallAt(0.5), 0.0);
}

}  // namespace
}  // namespace crowder

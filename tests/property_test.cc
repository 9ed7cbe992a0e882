// Cross-module property tests: invariants that tie several subsystems
// together, checked over randomized inputs (parameterized seeds).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "core/crowder.h"

namespace crowder {
namespace {

data::Dataset RandomSmallDataset(uint64_t seed) {
  data::RestaurantConfig config;
  config.num_records = 150;
  config.num_duplicate_pairs = 25;
  config.num_chains = 5;
  config.seed = seed;
  return data::GenerateRestaurant(config).ValueOrDie();
}

class EndToEndProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EndToEndProperties, PipelineInvariantsHold) {
  const auto dataset = RandomSmallDataset(GetParam());
  core::WorkflowConfig config;
  config.likelihood_threshold = 0.3;
  config.cluster_size = 8;
  config.seed = GetParam() * 7 + 1;

  // The driver loop spelled out (as HybridWorkflow::Run runs it), noting
  // every record pair the crowd voted on along the way.
  auto backend = crowd::SimulatedCrowdBackend::Create(config.crowd, config.seed,
                                                      dataset.truth.entity_of, {})
                     .ValueOrDie();
  core::WorkflowDriver driver(config);
  ASSERT_TRUE(driver.Start(dataset).ok());
  std::set<std::pair<uint32_t, uint32_t>> voted;
  while (!driver.done()) {
    const auto ticket = backend->Post(driver.PendingHits()).ValueOrDie();
    crowd::VoteBatch votes = backend->Poll(ticket).ValueOrDie();
    for (const crowd::HitVotes& hv : votes.hit_votes) {
      for (const crowd::PairVote& pv : hv.votes) {
        voted.insert({std::min(pv.a, pv.b), std::max(pv.a, pv.b)});
      }
    }
    ASSERT_TRUE(driver.SubmitVotes(std::move(votes)).ok());
    ASSERT_TRUE(driver.Step().ok());
  }
  ASSERT_TRUE(driver.SubmitCrowdStats(backend->Finish().ValueOrDie()).ok());
  const core::WorkflowResult result = driver.TakeResult().ValueOrDie();
  const auto pairs = core::HybridWorkflow::MachinePass(
                         dataset, similarity::SetMeasure::kJaccard, config.likelihood_threshold)
                         .ValueOrDie();
  ASSERT_EQ(pairs.size(), result.num_candidate_pairs);

  // 1. Every candidate pair meets the threshold and is admissible.
  for (const auto& p : pairs) {
    EXPECT_GE(p.score, config.likelihood_threshold);
    EXPECT_LT(p.a, p.b);
    EXPECT_LT(p.b, dataset.table.num_records());
  }

  // 2. A cluster HIT covers at least one pair, so #HITs <= #pairs.
  EXPECT_LE(result.crowd_stats.num_hits, result.num_candidate_pairs);

  // 3. Every candidate pair received at least one vote (cluster cover).
  for (const auto& p : pairs) {
    EXPECT_EQ(voted.count({p.a, p.b}), 1u) << "pair (" << p.a << "," << p.b << ")";
  }

  // 4. Cost accounting: assignments = HITs * replication; cost follows.
  EXPECT_EQ(result.crowd_stats.num_assignments,
            result.crowd_stats.num_hits * config.crowd.assignments_per_hit);
  EXPECT_NEAR(result.crowd_stats.cost_dollars,
              result.crowd_stats.num_assignments * config.crowd.CostPerAssignment(), 1e-9);

  // 5. Ranked output is sorted by score descending and covers all pairs.
  EXPECT_EQ(result.ranked.size(), result.num_candidate_pairs);
  for (size_t i = 1; i < result.ranked.size(); ++i) {
    EXPECT_GE(result.ranked[i - 1].score, result.ranked[i].score);
  }

  // 6. PR curve: recall never decreases; precision within [0,1].
  for (size_t i = 1; i < result.pr_curve.size(); ++i) {
    EXPECT_GE(result.pr_curve[i].recall, result.pr_curve[i - 1].recall);
    EXPECT_GE(result.pr_curve[i].precision, 0.0);
    EXPECT_LE(result.pr_curve[i].precision, 1.0);
  }

  // 7. Entity clustering on the ranked output never invents records and
  //    partitions all of them.
  auto clusters = core::ResolveEntities(
                      static_cast<uint32_t>(dataset.table.num_records()), result.ranked)
                      .ValueOrDie();
  size_t total = 0;
  for (const auto& cluster : clusters.clusters) total += cluster.size();
  EXPECT_EQ(total, dataset.table.num_records());

  // 8. Merged table has exactly one record per cluster.
  const data::Table merged = core::MergeClusters(dataset.table, clusters);
  EXPECT_EQ(merged.num_records(), clusters.num_clusters());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEndProperties, ::testing::Range<uint64_t>(1, 7));

class GeneratorBounds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorBounds, ApproximationRespectsStructuralBound) {
  // The Goldschmidt construction emits exactly ceil(|SEQ| / (k-1)) windows,
  // and |SEQ| = #non-isolated vertices + #edges. HIT count must never
  // exceed that (empty windows can only reduce it).
  Rng rng(GetParam());
  const uint32_t n = 30;
  std::vector<graph::Edge> edges;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.15)) edges.push_back({i, j});
    }
  }
  auto graph = graph::PairGraph::Create(n, edges).ValueOrDie();
  const size_t vertices = graph::ConnectedComponents(graph).size()
                              ? [&] {
                                  size_t count = 0;
                                  for (uint32_t v = 0; v < n; ++v) {
                                    count += graph.AliveDegree(v) > 0;
                                  }
                                  return count;
                                }()
                              : 0;
  const size_t seq_len = vertices + graph.num_alive_edges();

  for (uint32_t k : {3u, 5u, 8u}) {
    auto g = graph::PairGraph::Create(n, edges).ValueOrDie();
    hitgen::ApproximationGenerator generator;
    auto hits = generator.Generate(&g, k).ValueOrDie();
    EXPECT_LE(hits.size(), (seq_len + k - 2) / (k - 1));
  }
}

TEST_P(GeneratorBounds, TwoTieredRespectsEdgeLowerBound) {
  // Any valid cover needs at least ceil(E / C(k,2)) HITs (one HIT covers at
  // most k-choose-2 pairs).
  Rng rng(GetParam() + 100);
  const uint32_t n = 40;
  std::vector<graph::Edge> edges;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.2)) edges.push_back({i, j});
    }
  }
  for (uint32_t k : {4u, 6u, 10u}) {
    auto g = graph::PairGraph::Create(n, edges).ValueOrDie();
    hitgen::TwoTieredGenerator generator;
    auto hits = generator.Generate(&g, k).ValueOrDie();
    const uint64_t max_per_hit = static_cast<uint64_t>(k) * (k - 1) / 2;
    const uint64_t lower = (edges.size() + max_per_hit - 1) / max_per_hit;
    EXPECT_GE(hits.size(), lower);
  }
}

TEST_P(GeneratorBounds, CuttingStockBoundSandwich) {
  // lp_bound <= num_bins <= FFD bins, always.
  Rng rng(GetParam() + 200);
  const uint32_t capacity = 8;
  std::vector<uint32_t> demands(capacity);
  for (auto& d : demands) d = static_cast<uint32_t>(rng.Uniform(30));
  auto result = lp::SolveCuttingStock(capacity, demands).ValueOrDie();

  std::vector<uint32_t> items;
  for (size_t j = 0; j < demands.size(); ++j) {
    items.insert(items.end(), demands[j], static_cast<uint32_t>(j + 1));
  }
  auto ffd = lp::FirstFitDecreasing(capacity, items).ValueOrDie();
  EXPECT_LE(result.lp_bound, result.num_bins + 1e-6);
  EXPECT_LE(result.num_bins, ffd.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorBounds, ::testing::Range<uint64_t>(1, 9));

TEST(TraversalLimitTest, BfsAndDfsRespectLimit) {
  std::vector<graph::Edge> edges;
  for (uint32_t i = 0; i + 1 < 20; ++i) edges.push_back({i, i + 1});
  auto g = graph::PairGraph::Create(20, edges).ValueOrDie();
  EXPECT_EQ(graph::BfsOrder(g, 0, 5).size(), 5u);
  EXPECT_EQ(graph::DfsOrder(g, 0, 7).size(), 7u);
  EXPECT_EQ(graph::BfsOrder(g, 0, 0).size(), 20u);  // 0 = unlimited
  EXPECT_EQ(graph::BfsOrder(g, 0, 100).size(), 20u);
}

}  // namespace
}  // namespace crowder

// Consolidated golden tests for every worked example in the paper, using the
// Table 1 product records end to end. These tests pin the implementation to
// the paper's own numbers.
#include <gtest/gtest.h>

#include "core/workflow.h"
#include "graph/connected_components.h"
#include "hitgen/approximation_generator.h"
#include "hitgen/comparison_model.h"
#include "hitgen/two_tiered_generator.h"
#include "similarity/set_similarity.h"
#include "similarity/similarity_join.h"
#include "text/vocabulary.h"

namespace crowder {
namespace {

// Table 1 Product Names (r1..r9 -> indices 0..8).
const std::vector<std::string>& ProductNames() {
  static const std::vector<std::string> kNames = {
      "iPad Two 16GB WiFi White",
      "iPad 2nd generation 16GB WiFi White",
      "iPhone 4th generation White 16GB",
      "Apple iPhone 4 16GB White",
      "Apple iPhone 3rd generation Black 16GB",
      "iPhone 4 32GB White",
      "Apple iPad2 16GB WiFi White",
      "Apple iPod shuffle 2GB Blue",
      "Apple iPod shuffle USB Cable",
  };
  return kNames;
}

similarity::JoinInput Table1JoinInput() {
  text::Vocabulary vocab;
  similarity::JoinInput input;
  for (const auto& name : ProductNames()) {
    input.sets.push_back(similarity::MakeTokenSet(vocab.InternDocument(name)));
  }
  return input;
}

TEST(PaperExamplesTest, Section211JaccardValues) {
  // J(r1,r2) = 0.57 and J(r1,r3) = 0.25 (§2.1.1).
  const auto input = Table1JoinInput();
  EXPECT_NEAR(similarity::Jaccard(input.sets[0], input.sets[1]), 4.0 / 7.0, 1e-9);
  EXPECT_NEAR(similarity::Jaccard(input.sets[0], input.sets[2]), 0.25, 1e-9);
}

TEST(PaperExamplesTest, Example1TenPairsSurviveThreshold03) {
  // Example 1/Figure 2(a): with threshold 0.3 on Product Name Jaccard, ten
  // of the 36 pairs survive.
  similarity::JoinOptions options;
  options.threshold = 0.3;
  auto pairs = similarity::NaiveJoin(Table1JoinInput(), options).ValueOrDie();
  EXPECT_EQ(pairs.size(), 10u);
  // The (r8, r9) iPod pair is among them.
  bool found_ipod = false;
  for (const auto& p : pairs) found_ipod |= (p.a == 7 && p.b == 8);
  EXPECT_TRUE(found_ipod);
}

std::vector<graph::Edge> Table1SurvivingPairs() {
  similarity::JoinOptions options;
  options.threshold = 0.3;
  auto pairs = similarity::NaiveJoin(Table1JoinInput(), options).ValueOrDie();
  std::vector<graph::Edge> edges;
  for (const auto& p : pairs) edges.push_back({p.a, p.b});
  return edges;
}

TEST(PaperExamplesTest, Figure5GraphStructure) {
  // The surviving pairs form the Figure 5 graph: one 7-vertex component and
  // the {r8, r9} component.
  auto graph = graph::PairGraph::Create(9, Table1SurvivingPairs()).ValueOrDie();
  const auto comps = graph::ConnectedComponents(graph);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].size(), 7u);
  EXPECT_EQ(comps[1], (graph::Component{7, 8}));
}

TEST(PaperExamplesTest, Section32OptimalIsThreeHits) {
  // §3.2/§5.1: three cluster-based HITs suffice for the ten pairs at k=4,
  // and the two-tiered approach attains that optimum.
  auto graph = graph::PairGraph::Create(9, Table1SurvivingPairs()).ValueOrDie();
  hitgen::TwoTieredGenerator generator;
  auto hits = generator.Generate(&graph, 4).ValueOrDie();
  EXPECT_EQ(hits.size(), 3u);
  graph.Reset();
  EXPECT_TRUE(hitgen::ValidateClusterCover(hits, graph, 4).ok());
}

TEST(PaperExamplesTest, Example2ApproximationSevenHits) {
  // Example 2: SEQ has 19 elements (9 vertices + 10 edges); with k=4 the
  // Goldschmidt algorithm emits ceil(19/3) = 7 HITs.
  auto graph = graph::PairGraph::Create(9, Table1SurvivingPairs()).ValueOrDie();
  hitgen::ApproximationGenerator generator;
  auto hits = generator.Generate(&graph, 4).ValueOrDie();
  EXPECT_EQ(hits.size(), 7u);
}

TEST(PaperExamplesTest, Example3PartitionsMatchPaper) {
  // Example 3 partitions the LCC into {r3,r4,r5,r6}, {r1,r2,r3,r7}, {r4,r7}.
  auto graph = graph::PairGraph::Create(9, Table1SurvivingPairs()).ValueOrDie();
  const auto comps = graph::ConnectedComponents(graph);
  const auto parts = hitgen::PartitionLcc(&graph, comps[0], 4);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<uint32_t>{2, 3, 4, 5}));
  EXPECT_EQ(parts[1], (std::vector<uint32_t>{0, 1, 2, 6}));
  EXPECT_EQ(parts[2], (std::vector<uint32_t>{3, 6}));
}

TEST(PaperExamplesTest, Section53PackingExample) {
  // §5.3: packing SCCs {r3,r4,r5,r6}, {r1,r2,r3,r7}, {r4,r7}, {r8,r9} into
  // k=4 HITs needs exactly 3 (x=2 of pattern [0,0,0,1], x=1 of [0,2,0,0]).
  const std::vector<std::vector<uint32_t>> sccs{
      {2, 3, 4, 5}, {0, 1, 2, 6}, {3, 6}, {7, 8}};
  auto hits = hitgen::PackSccs(sccs, 4).ValueOrDie();
  EXPECT_EQ(hits.size(), 3u);
}

TEST(PaperExamplesTest, Example4ComparisonCounts) {
  // Example 4: HIT {r1,r2,r3,r7} with entities {r1,r2,r7} and {r3} needs 3
  // comparisons when the big entity goes first; a pair-based HIT over its 4
  // candidate pairs needs 4.
  const std::vector<uint32_t> entity_of{0, 0, 1, 2, 3, 4, 0, 5, 6};
  hitgen::ClusterBasedHit hit{{0, 1, 2, 6}};
  const auto sizes = hitgen::EntitySizesInHit(hit, entity_of);
  EXPECT_EQ(hitgen::MinComparisons(sizes), 3u);
  EXPECT_EQ(hitgen::MaxComparisons(sizes), 5u);
}

TEST(PaperExamplesTest, EndToEndFindsTheFourMatches) {
  // Figure 2(c): the crowd confirms (r1,r2), (r1,r7), (r2,r7), (r3,r4).
  data::Dataset ds;
  ds.name = "table1";
  ds.table.attribute_names = {"product_name"};
  for (const auto& name : ProductNames()) ds.table.records.push_back({name});
  ds.truth.entity_of = {0, 0, 1, 1, 2, 3, 0, 4, 5};

  core::WorkflowConfig config;
  config.likelihood_threshold = 0.3;
  config.cluster_size = 4;
  config.seed = 2012;
  auto result = core::HybridWorkflow(config).Run(ds).ValueOrDie();

  std::set<std::pair<uint32_t, uint32_t>> confirmed;
  for (const auto& rp : result.ranked) {
    if (rp.score >= 0.5) confirmed.insert({rp.a, rp.b});
  }
  EXPECT_EQ(confirmed.size(), 4u);
  EXPECT_TRUE(confirmed.count({0, 1}));
  EXPECT_TRUE(confirmed.count({0, 6}));
  EXPECT_TRUE(confirmed.count({1, 6}));
  EXPECT_TRUE(confirmed.count({2, 3}));
}

}  // namespace
}  // namespace crowder

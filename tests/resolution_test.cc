// Tests for entity clustering (core/resolution.h).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/resolution.h"

namespace crowder {
namespace core {
namespace {

eval::RankedPair Pair(uint32_t a, uint32_t b, double score, bool is_match = true) {
  return {a, b, score, is_match};
}

TEST(ResolveEntitiesTest, SimpleTransitiveGroup) {
  // 0-1 and 1-2 confirmed: one cluster {0,1,2} (singleton merges pass).
  auto clusters =
      ResolveEntities(4, {Pair(0, 1, 0.9), Pair(1, 2, 0.8)}).ValueOrDie();
  EXPECT_EQ(clusters.num_clusters(), 2u);  // {0,1,2} and {3}
  EXPECT_EQ(clusters.clusters[0], (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(clusters.clusters[1], (std::vector<uint32_t>{3}));
  EXPECT_EQ(clusters.cluster_of[0], clusters.cluster_of[2]);
  EXPECT_NE(clusters.cluster_of[0], clusters.cluster_of[3]);
}

TEST(ResolveEntitiesTest, BelowThresholdIgnored) {
  auto clusters = ResolveEntities(3, {Pair(0, 1, 0.49)}).ValueOrDie();
  EXPECT_EQ(clusters.num_clusters(), 3u);
  EXPECT_EQ(clusters.num_duplicate_groups(), 0u);
}

TEST(ResolveEntitiesTest, WeakBridgeBetweenClustersRejected) {
  // Two tight triangles {0,1,2} and {3,4,5} joined by a single confirmed
  // pair (2,3): cross support = 1/9 < 0.34, so the bridge is rejected.
  std::vector<eval::RankedPair> pairs{
      Pair(0, 1, 0.99), Pair(0, 2, 0.98), Pair(1, 2, 0.97),
      Pair(3, 4, 0.96), Pair(3, 5, 0.95), Pair(4, 5, 0.94),
      Pair(2, 3, 0.60),  // the false bridge (processed last: lowest score)
  };
  auto clusters = ResolveEntities(6, pairs).ValueOrDie();
  EXPECT_EQ(clusters.num_clusters(), 2u);
  EXPECT_EQ(clusters.clusters[0], (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(clusters.clusters[1], (std::vector<uint32_t>{3, 4, 5}));
}

TEST(ResolveEntitiesTest, TransitiveClosureModeAcceptsBridge) {
  std::vector<eval::RankedPair> pairs{
      Pair(0, 1, 0.99), Pair(0, 2, 0.98), Pair(1, 2, 0.97),
      Pair(3, 4, 0.96), Pair(3, 5, 0.95), Pair(4, 5, 0.94),
      Pair(2, 3, 0.60),
  };
  ResolutionOptions options;
  options.transitive_closure = true;
  auto clusters = ResolveEntities(6, pairs, options).ValueOrDie();
  EXPECT_EQ(clusters.num_clusters(), 1u);
}

TEST(ResolveEntitiesTest, StrongBridgeAccepted) {
  // Clusters {0,1} and {2,3} with 3 of 4 cross pairs confirmed: support
  // 0.75 >= 0.34 -> merge.
  std::vector<eval::RankedPair> pairs{
      Pair(0, 1, 0.99), Pair(2, 3, 0.98),
      Pair(0, 2, 0.90), Pair(1, 3, 0.89), Pair(0, 3, 0.88),
  };
  auto clusters = ResolveEntities(4, pairs).ValueOrDie();
  EXPECT_EQ(clusters.num_clusters(), 1u);
  EXPECT_EQ(clusters.clusters[0], (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(ResolveEntitiesTest, EmptyPairsAllSingletons) {
  auto clusters = ResolveEntities(5, {}).ValueOrDie();
  EXPECT_EQ(clusters.num_clusters(), 5u);
  EXPECT_EQ(clusters.num_duplicate_groups(), 0u);
}

TEST(ResolveEntitiesTest, RejectsBadInputs) {
  EXPECT_FALSE(ResolveEntities(2, {Pair(0, 5, 0.9)}).ok());
  EXPECT_FALSE(ResolveEntities(2, {Pair(1, 1, 0.9)}).ok());
  ResolutionOptions bad;
  bad.match_threshold = 1.5;
  EXPECT_FALSE(ResolveEntities(2, {}, bad).ok());
}

TEST(ResolveEntitiesTest, ClusterIdsAreDenseAndOrdered) {
  auto clusters = ResolveEntities(5, {Pair(3, 4, 0.9)}).ValueOrDie();
  // Order by smallest member: {0},{1},{2},{3,4}.
  ASSERT_EQ(clusters.num_clusters(), 4u);
  EXPECT_EQ(clusters.clusters[3], (std::vector<uint32_t>{3, 4}));
  for (uint32_t r = 0; r < 5; ++r) {
    const auto& c = clusters.clusters[clusters.cluster_of[r]];
    EXPECT_NE(std::find(c.begin(), c.end(), r), c.end());
  }
}

// After seeded random AddRecord/AddMatch sequences, every record's ring
// holds exactly its CurrentClusters() cluster, and the ring
// canonicalization equals ResolveEntities' transitive closure.
TEST(StreamingResolverRingsTest, RingsAreTheClustersOfTheClosure) {
  Rng rng(20261018);
  for (int trial = 0; trial < 40; ++trial) {
    StreamingResolver resolver;
    std::vector<eval::RankedPair> matches;
    const int steps = 1 + static_cast<int>(rng.Uniform(150));
    for (int step = 0; step < steps; ++step) {
      if (resolver.num_records() < 2 || rng.Uniform(3) == 0) {
        resolver.AddRecord();
        continue;
      }
      const uint32_t a = static_cast<uint32_t>(rng.Uniform(resolver.num_records()));
      const uint32_t b = static_cast<uint32_t>(rng.Uniform(resolver.num_records()));
      if (a == b) continue;
      ASSERT_TRUE(resolver.AddMatch(a, b).ok());
      matches.push_back(Pair(a, b, 1.0));
    }
    const EntityClusters clusters = resolver.CurrentClusters();
    ASSERT_EQ(resolver.rings().size(), resolver.num_records());
    for (uint32_t r = 0; r < resolver.num_records(); ++r) {
      std::vector<uint32_t> ring{r};
      for (uint32_t m = resolver.rings()[r]; m != r; m = resolver.rings()[m]) {
        ASSERT_LE(ring.size(), resolver.num_records()) << "ring of " << r << " never closes";
        ring.push_back(m);
      }
      std::sort(ring.begin(), ring.end());
      EXPECT_EQ(ring, clusters.clusters[clusters.cluster_of[r]]) << "trial " << trial;
      EXPECT_EQ(RingMembers(resolver.rings(), r), ring) << "trial " << trial;
    }
    ResolutionOptions options;
    options.transitive_closure = true;
    const EntityClusters closure =
        ResolveEntities(resolver.num_records(), matches, options).ValueOrDie();
    EXPECT_EQ(clusters.cluster_of, closure.cluster_of) << "trial " << trial;
    EXPECT_EQ(clusters.clusters, closure.clusters) << "trial " << trial;
  }
}

TEST(EvaluateClustersTest, PerfectClustering) {
  data::Dataset ds;
  ds.table.attribute_names = {"a"};
  ds.table.records = {{"x"}, {"y"}, {"z"}, {"w"}};
  ds.truth.entity_of = {0, 0, 1, 1};
  auto clusters = ResolveEntities(4, {Pair(0, 1, 0.9), Pair(2, 3, 0.9)}).ValueOrDie();
  const auto q = EvaluateClusters(clusters, ds);
  EXPECT_EQ(q.precision, 1.0);
  EXPECT_EQ(q.recall, 1.0);
  EXPECT_EQ(q.f1, 1.0);
}

TEST(EvaluateClustersTest, PartialClustering) {
  data::Dataset ds;
  ds.table.attribute_names = {"a"};
  ds.table.records = {{"x"}, {"y"}, {"z"}, {"w"}};
  ds.truth.entity_of = {0, 0, 1, 1};
  // One correct pair found, one false pair predicted.
  auto clusters =
      ResolveEntities(4, {Pair(0, 1, 0.9), Pair(1, 2, 0.8, false)}).ValueOrDie();
  const auto q = EvaluateClusters(clusters, ds);
  // Cluster {0,1,2} predicts pairs (0,1),(0,2),(1,2): 1 of 3 correct.
  EXPECT_NEAR(q.precision, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(q.recall, 0.5, 1e-9);
}

TEST(MergeClustersTest, KeepsLongestRecord) {
  data::Table table;
  table.attribute_names = {"name"};
  table.records = {{"short"}, {"a much longer record"}, {"other"}};
  EntityClusters clusters;
  clusters.cluster_of = {0, 0, 1};
  clusters.clusters = {{0, 1}, {2}};
  const data::Table merged = MergeClusters(table, clusters);
  ASSERT_EQ(merged.num_records(), 2u);
  EXPECT_EQ(merged.records[0][0], "a much longer record");
  EXPECT_EQ(merged.records[1][0], "other");
}

TEST(MergeClustersTest, PreservesSources) {
  data::Table table;
  table.attribute_names = {"name"};
  table.records = {{"aa"}, {"bbb"}};
  table.sources = {0, 1};
  EntityClusters clusters;
  clusters.cluster_of = {0, 0};
  clusters.clusters = {{0, 1}};
  const data::Table merged = MergeClusters(table, clusters);
  ASSERT_EQ(merged.sources.size(), 1u);
  EXPECT_EQ(merged.sources[0], 1);  // the longer record came from source 1
}

}  // namespace
}  // namespace core
}  // namespace crowder

// Tests for HIT types, cover validation and pair-based HIT generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "hitgen/hit.h"
#include "hitgen/pair_hit_generator.h"

namespace crowder {
namespace hitgen {
namespace {

std::vector<graph::Edge> Figure5Edges() {
  return {{0, 1}, {0, 6}, {1, 2}, {1, 6}, {2, 3}, {2, 4}, {3, 4}, {3, 5}, {3, 6}, {7, 8}};
}

TEST(ClusterHitTest, CoveredPairs) {
  auto g = graph::PairGraph::Create(9, Figure5Edges()).ValueOrDie();
  ClusterBasedHit hit{{0, 1, 2, 6}};
  const auto covered = hit.CoveredPairs(g);
  // Pairs inside {r1,r2,r3,r7}: (0,1),(0,6),(1,2),(1,6) — 4 pairs.
  EXPECT_EQ(covered.size(), 4u);
}

TEST(ClusterHitTest, CoveredPairsIgnoresLiveness) {
  auto g = graph::PairGraph::Create(9, Figure5Edges()).ValueOrDie();
  g.RemoveEdge(0, 1);
  ClusterBasedHit hit{{0, 1}};
  EXPECT_EQ(hit.CoveredPairs(g).size(), 1u);
}

TEST(ValidateClusterCoverTest, AcceptsPaperSolution) {
  // §3.2: H1={r1,r2,r3,r7}, H2={r3,r4,r5,r6}, H3={r4,r7,r8,r9} cover all
  // ten pairs with k=4.
  auto g = graph::PairGraph::Create(9, Figure5Edges()).ValueOrDie();
  std::vector<ClusterBasedHit> hits{{{0, 1, 2, 6}}, {{2, 3, 4, 5}}, {{3, 6, 7, 8}}};
  EXPECT_TRUE(ValidateClusterCover(hits, g, 4).ok());
}

TEST(ValidateClusterCoverTest, RejectsOversizedHit) {
  auto g = graph::PairGraph::Create(9, Figure5Edges()).ValueOrDie();
  std::vector<ClusterBasedHit> hits{{{0, 1, 2, 3, 4, 5, 6, 7, 8}}};
  const Status s = ValidateClusterCover(hits, g, 4);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST(ValidateClusterCoverTest, RejectsUncoveredPair) {
  auto g = graph::PairGraph::Create(9, Figure5Edges()).ValueOrDie();
  std::vector<ClusterBasedHit> hits{{{0, 1, 2, 6}}, {{2, 3, 4, 5}}};  // (3,6),(7,8) uncovered
  EXPECT_FALSE(ValidateClusterCover(hits, g, 4).ok());
}

TEST(ValidateClusterCoverTest, RejectsOutOfRangeRecord) {
  auto g = graph::PairGraph::Create(3, {{0, 1}}).ValueOrDie();
  std::vector<ClusterBasedHit> hits{{{0, 1, 99}}};
  const Status s = ValidateClusterCover(hits, g, 4);
  EXPECT_TRUE(s.IsOutOfRange());
}

TEST(PairHitGeneratorTest, ChunksEvenly) {
  // §3.1: ten pairs with k=2 -> five pair-based HITs (Figure 2(b)).
  std::vector<graph::Edge> pairs = Figure5Edges();
  auto hits = GeneratePairHits(pairs, 2);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 5u);
  for (const auto& hit : *hits) EXPECT_EQ(hit.pairs.size(), 2u);
}

TEST(PairHitGeneratorTest, LastHitMayBeSmaller) {
  auto hits = GeneratePairHits(Figure5Edges(), 3);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 4u);  // ceil(10/3)
  EXPECT_EQ(hits->back().pairs.size(), 1u);
}

TEST(PairHitGeneratorTest, PreservesOrderAndContent) {
  const auto pairs = Figure5Edges();
  auto hits = GeneratePairHits(pairs, 4);
  ASSERT_TRUE(hits.ok());
  size_t idx = 0;
  for (const auto& hit : *hits) {
    for (const auto& e : hit.pairs) {
      EXPECT_EQ(e, pairs[idx]);
      ++idx;
    }
  }
  EXPECT_EQ(idx, pairs.size());
}

TEST(PairHitGeneratorTest, EmptyInput) {
  auto hits = GeneratePairHits({}, 5);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST(PairHitGeneratorTest, ZeroBatchSizeRejected) {
  EXPECT_FALSE(GeneratePairHits(Figure5Edges(), 0).ok());
}

TEST(PairHitGeneratorTest, SlicesCutAtHitBoundariesPackLikeTheWhole) {
  // The partitioned crowd boundary packs each pair partition on its own,
  // and partitions end on HIT boundaries (docs/ARCHITECTURE.md). Over
  // random pair sequences, packing each slice of a split at multiples of
  // pairs_per_hit and concatenating the HITs must equal one pack.
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const uint32_t per_hit = static_cast<uint32_t>(rng.UniformInt(1, 12));
    std::vector<graph::Edge> pairs(rng.Uniform(150));
    for (graph::Edge& e : pairs) {
      e.a = static_cast<uint32_t>(rng.Uniform(60));
      e.b = e.a + 1 + static_cast<uint32_t>(rng.Uniform(60));
    }
    const auto whole = GeneratePairHits(pairs, per_hit).ValueOrDie();
    std::vector<PairBasedHit> concatenated;
    for (size_t begin = 0; begin < pairs.size();) {
      // One to four HITs' worth of pairs; the last slice may be short.
      const size_t end =
          std::min(pairs.size(), begin + per_hit * static_cast<size_t>(rng.UniformInt(1, 4)));
      const std::vector<graph::Edge> slice(pairs.begin() + static_cast<ptrdiff_t>(begin),
                                           pairs.begin() + static_cast<ptrdiff_t>(end));
      const std::vector<PairBasedHit> part = GeneratePairHits(slice, per_hit).ValueOrDie();
      concatenated.insert(concatenated.end(), part.begin(), part.end());
      begin = end;
    }
    ASSERT_EQ(concatenated.size(), whole.size()) << "seed " << seed;
    for (size_t h = 0; h < whole.size(); ++h) {
      EXPECT_EQ(concatenated[h].pairs, whole[h].pairs) << "seed " << seed << " HIT " << h;
    }
  }
}

}  // namespace
}  // namespace hitgen
}  // namespace crowder

// The determinism bridge between the serving stack's incremental index and
// the batch AllPairs join: inserting records one at a time must surface
// exactly the candidate set one AllPairsJoin over the finished corpus emits
// — same pairs, same scores, bitwise — across inputs, thresholds, source
// gating, and the index's periodic rare-first re-ranks. This equality is the
// first leg of the incremental-vs-batch equivalence contract
// (serve/service.h); the other legs live in serve_test.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/stages.h"
#include "core/workflow.h"
#include "data/generators.h"
#include "serve/incremental_index.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace serve {
namespace {

similarity::JoinInput RandomInput(uint64_t seed, size_t n, uint32_t vocab, size_t max_len,
                                  bool two_sources) {
  Rng rng(seed);
  similarity::JoinInput input;
  for (size_t i = 0; i < n; ++i) {
    std::vector<text::TokenId> tokens;
    const size_t len = 1 + rng.Uniform(max_len);
    for (size_t t = 0; t < len; ++t) {
      tokens.push_back(static_cast<text::TokenId>(rng.Zipf(vocab, 0.9)));
    }
    input.sets.push_back(similarity::MakeTokenSet(std::move(tokens)));
    if (two_sources) input.sources.push_back(static_cast<int>(rng.Uniform(2)));
  }
  return input;
}

// Feeds the input record by record and returns the concatenated emissions in
// SortPairs order — the shape the batch join reports in.
std::vector<similarity::ScoredPair> IncrementalPairs(const similarity::JoinInput& input,
                                                     const similarity::JoinOptions& options,
                                                     size_t rebuild_base) {
  IncrementalIndexOptions opts;
  opts.threshold = options.threshold;
  opts.cross_source_only = !input.sources.empty();
  opts.rebuild_base = rebuild_base;
  auto index = IncrementalIndex::Create(opts);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  std::vector<similarity::ScoredPair> all;
  for (size_t i = 0; i < input.sets.size(); ++i) {
    const int source = input.sources.empty() ? 0 : input.sources[i];
    auto emitted = index->Insert(input.sets[i], source);
    EXPECT_TRUE(emitted.ok()) << emitted.status().ToString();
    for (const similarity::ScoredPair& p : *emitted) all.push_back(p);
  }
  similarity::SortPairs(&all);
  return all;
}

void ExpectBitwiseEqual(const std::vector<similarity::ScoredPair>& incremental,
                        const std::vector<similarity::ScoredPair>& batch) {
  ASSERT_EQ(incremental.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(incremental[i].a, batch[i].a) << "pair " << i;
    EXPECT_EQ(incremental[i].b, batch[i].b) << "pair " << i;
    // Bitwise, not approximate: both paths compute the score from the same
    // integer overlap count over the same token sets.
    EXPECT_EQ(incremental[i].score, batch[i].score) << "pair " << i;
  }
}

void ExpectBridgesBatch(const similarity::JoinInput& input, const similarity::JoinOptions& options,
                        size_t rebuild_base) {
  auto batch = similarity::AllPairsJoin(input, options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  std::vector<similarity::ScoredPair> sorted = *std::move(batch);
  similarity::SortPairs(&sorted);
  ExpectBitwiseEqual(IncrementalPairs(input, options, rebuild_base), sorted);
}

TEST(IncrementalIndexTest, BridgesBatchAcrossInputsAndThresholds) {
  for (const uint64_t seed : {11, 12, 13, 14}) {
    const similarity::JoinInput input = RandomInput(seed, 160, 120, 14, /*two_sources=*/false);
    for (const double threshold : {0.3, 0.5, 0.8}) {
      similarity::JoinOptions options;
      options.threshold = threshold;
      SCOPED_TRACE("seed=" + std::to_string(seed) + " threshold=" + std::to_string(threshold));
      ExpectBridgesBatch(input, options, /*rebuild_base=*/0);
    }
  }
}

TEST(IncrementalIndexTest, RerankRebuildsDoNotChangeTheAnswer) {
  const similarity::JoinInput input = RandomInput(23, 200, 90, 12, /*two_sources=*/false);
  similarity::JoinOptions options;
  options.threshold = 0.4;
  // rebuild_base=4 forces re-ranks at 4, 8, 16, ... — mid-stream, many times.
  ExpectBridgesBatch(input, options, /*rebuild_base=*/4);

  IncrementalIndexOptions opts;
  opts.threshold = options.threshold;
  opts.rebuild_base = 4;
  auto index = IncrementalIndex::Create(opts);
  ASSERT_TRUE(index.ok());
  for (const similarity::TokenSet& set : input.sets) {
    ASSERT_TRUE(index->Insert(set, 0).ok());
  }
  EXPECT_GT(index->num_rebuilds(), 3u);  // the re-ranks actually happened
}

TEST(IncrementalIndexTest, CrossSourceGatingBridgesBatch) {
  const similarity::JoinInput input = RandomInput(37, 180, 100, 12, /*two_sources=*/true);
  similarity::JoinOptions options;
  options.threshold = 0.35;
  ExpectBridgesBatch(input, options, /*rebuild_base=*/32);
}

TEST(IncrementalIndexTest, RestaurantDatasetBridgesBatch) {
  auto dataset = data::GenerateRestaurant();
  ASSERT_TRUE(dataset.ok());
  const similarity::JoinInput input = core::internal::BuildJoinInput(*dataset);
  similarity::JoinOptions options;
  options.threshold = 0.3;
  ExpectBridgesBatch(input, options, /*rebuild_base=*/256);
}

TEST(IncrementalIndexTest, ProductDatasetCrossSourceBridgesBatch) {
  data::ProductConfig config;
  config.scale_factor = 0.25;
  auto dataset = data::GenerateProduct(config);
  ASSERT_TRUE(dataset.ok());
  const similarity::JoinInput input = core::internal::BuildJoinInput(*dataset);
  ASSERT_FALSE(input.sources.empty());
  similarity::JoinOptions options;
  options.threshold = 0.3;
  ExpectBridgesBatch(input, options, /*rebuild_base=*/512);
}

TEST(IncrementalIndexTest, RejectsBadInputs) {
  IncrementalIndexOptions opts;
  opts.threshold = 0.0;
  EXPECT_FALSE(IncrementalIndex::Create(opts).ok());
  opts.threshold = 1.5;
  EXPECT_FALSE(IncrementalIndex::Create(opts).ok());

  opts.threshold = 0.5;
  auto index = IncrementalIndex::Create(opts);
  ASSERT_TRUE(index.ok());
  EXPECT_FALSE(index->Insert({3, 1, 2}, 0).ok());  // unsorted
  EXPECT_FALSE(index->Insert({1, 1, 2}, 0).ok());  // duplicate token
}

}  // namespace
}  // namespace serve
}  // namespace crowder

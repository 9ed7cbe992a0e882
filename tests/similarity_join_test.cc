// Tests for the similarity joins, centred on the property that the
// prefix-filtering AllPairs join produces exactly the same result as the
// exhaustive join, across thresholds and random inputs.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "similarity/blocking.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace similarity {
namespace {

JoinInput RandomInput(uint64_t seed, size_t n, uint32_t vocab, size_t max_len,
                      bool two_sources) {
  Rng rng(seed);
  JoinInput input;
  for (size_t i = 0; i < n; ++i) {
    std::vector<text::TokenId> tokens;
    const size_t len = 1 + rng.Uniform(max_len);
    for (size_t t = 0; t < len; ++t) {
      // Zipf-ish token frequencies, as in real text.
      tokens.push_back(static_cast<text::TokenId>(rng.Zipf(vocab, 0.9)));
    }
    input.sets.push_back(MakeTokenSet(std::move(tokens)));
    if (two_sources) input.sources.push_back(static_cast<int>(rng.Uniform(2)));
  }
  return input;
}

TEST(NaiveJoinTest, FindsAllPairsAtZeroThreshold) {
  JoinInput input;
  input.sets = {{0, 1}, {1, 2}, {3, 4}};
  JoinOptions options;
  options.threshold = 0.0;
  auto r = NaiveJoin(input, options);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);  // all C(3,2) pairs
}

TEST(NaiveJoinTest, ThresholdFilters) {
  JoinInput input;
  input.sets = {{0, 1, 2}, {0, 1, 2}, {5, 6, 7}};
  JoinOptions options;
  options.threshold = 0.9;
  auto r = NaiveJoin(input, options);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].a, 0u);
  EXPECT_EQ((*r)[0].b, 1u);
  EXPECT_NEAR((*r)[0].score, 1.0, 1e-12);
}

TEST(NaiveJoinTest, CrossSourceOnly) {
  JoinInput input;
  input.sets = {{0, 1}, {0, 1}, {0, 1}};
  input.sources = {0, 0, 1};
  JoinOptions options;
  options.threshold = 0.5;
  auto r = NaiveJoin(input, options);
  ASSERT_TRUE(r.ok());
  // (0,1) is same-source; only (0,2) and (1,2) qualify.
  EXPECT_EQ(r->size(), 2u);
}

TEST(JoinValidationTest, RejectsBadThreshold) {
  JoinInput input;
  input.sets = {{0}};
  JoinOptions options;
  options.threshold = 1.5;
  EXPECT_FALSE(NaiveJoin(input, options).ok());
  options.threshold = -0.1;
  EXPECT_FALSE(AllPairsJoin(input, options).ok());
}

TEST(JoinValidationTest, RejectsMismatchedSources) {
  JoinInput input;
  input.sets = {{0}, {1}};
  input.sources = {0};
  EXPECT_FALSE(NaiveJoin(input, {}).ok());
}

TEST(JoinValidationTest, RejectsUnsortedSets) {
  JoinInput input;
  input.sets = {{2, 1}};
  EXPECT_FALSE(NaiveJoin(input, {}).ok());
}

TEST(JoinValidationTest, RejectsDuplicateTokens) {
  JoinInput input;
  input.sets = {{1, 1, 2}};
  EXPECT_FALSE(NaiveJoin(input, {}).ok());
}

TEST(AllPairsJoinTest, EmptyInput) {
  JoinInput input;
  auto r = AllPairsJoin(input, {});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(AllPairsJoinTest, EmptySetsNeverMatchPositiveThreshold) {
  JoinInput input;
  input.sets = {{}, {}, {0, 1}};
  JoinOptions options;
  options.threshold = 0.5;
  auto r = AllPairsJoin(input, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

struct JoinEquivalenceCase {
  uint64_t seed;
  size_t n;
  uint32_t vocab;
  size_t max_len;
  bool two_sources;
  double threshold;
};

class JoinEquivalence : public ::testing::TestWithParam<JoinEquivalenceCase> {};

TEST_P(JoinEquivalence, AllPairsMatchesNaive) {
  const auto& p = GetParam();
  const JoinInput input = RandomInput(p.seed, p.n, p.vocab, p.max_len, p.two_sources);
  JoinOptions options;
  options.threshold = p.threshold;

  auto naive = NaiveJoin(input, options);
  auto fast = AllPairsJoin(input, options);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(fast.ok());
  ASSERT_EQ(naive->size(), fast->size());
  for (size_t i = 0; i < naive->size(); ++i) {
    EXPECT_EQ((*naive)[i].a, (*fast)[i].a);
    EXPECT_EQ((*naive)[i].b, (*fast)[i].b);
    EXPECT_NEAR((*naive)[i].score, (*fast)[i].score, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinEquivalence,
    ::testing::Values(
        JoinEquivalenceCase{1, 60, 40, 8, false, 0.3},
        JoinEquivalenceCase{2, 60, 40, 8, false, 0.5},
        JoinEquivalenceCase{3, 60, 40, 8, false, 0.8},
        JoinEquivalenceCase{4, 60, 40, 8, false, 0.1},
        JoinEquivalenceCase{5, 80, 25, 6, true, 0.4},
        JoinEquivalenceCase{6, 60, 40, 8, false, 0.5},
        JoinEquivalenceCase{7, 60, 40, 8, false, 0.5},
        JoinEquivalenceCase{8, 60, 40, 8, false, 0.3},
        JoinEquivalenceCase{9, 60, 40, 8, false, 0.3},
        JoinEquivalenceCase{10, 120, 60, 10, false, 0.2},
        JoinEquivalenceCase{11, 120, 60, 10, true, 0.2},
        JoinEquivalenceCase{12, 40, 10, 4, false, 0.6},
        JoinEquivalenceCase{13, 50, 200, 12, false, 0.3},
        JoinEquivalenceCase{14, 70, 30, 7, false, 0.0},
        JoinEquivalenceCase{15, 90, 50, 9, true, 0.4},
        JoinEquivalenceCase{16, 60, 40, 8, false, 0.5},
        JoinEquivalenceCase{17, 80, 25, 6, true, 0.8}));

TEST(TokenBlockingTest, CandidatesShareAToken) {
  JoinInput input;
  input.sets = {{0, 1}, {1, 2}, {3, 4}, {4, 5}};
  auto r = TokenBlocking(input, {});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].a, 0u);
  EXPECT_EQ((*r)[0].b, 1u);
  EXPECT_EQ((*r)[1].a, 2u);
  EXPECT_EQ((*r)[1].b, 3u);
}

TEST(TokenBlockingTest, LargeBlocksDiscarded) {
  JoinInput input;
  for (int i = 0; i < 10; ++i) input.sets.push_back({0});
  BlockingOptions options;
  options.max_block_size = 5;
  auto r = TokenBlocking(input, options);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(TokenBlockingTest, RespectsSources) {
  JoinInput input;
  input.sets = {{0}, {0}};
  input.sources = {0, 0};
  auto r = TokenBlocking(input, {});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
}

TEST(BlockingJoinTest, BlockingPlusVerifyFindsJaccardPairsThatShareTokens) {
  // With a positive Jaccard threshold every qualifying pair shares >= 1
  // token, so blocking + verification equals the naive join (given no block
  // is discarded).
  const JoinInput input = RandomInput(99, 80, 30, 6, false);
  JoinOptions options;
  options.threshold = 0.4;
  BlockingOptions blocking;
  blocking.max_block_size = 0;  // keep all blocks

  auto cands = TokenBlocking(input, blocking);
  ASSERT_TRUE(cands.ok());
  auto verified = VerifyCandidates(input, *cands, options);
  auto naive = NaiveJoin(input, options);
  ASSERT_TRUE(verified.ok());
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(verified->size(), naive->size());
  for (size_t i = 0; i < naive->size(); ++i) {
    EXPECT_EQ((*verified)[i].a, (*naive)[i].a);
    EXPECT_EQ((*verified)[i].b, (*naive)[i].b);
  }
}

TEST(VerifyCandidatesTest, OutOfRangeCandidateIsError) {
  JoinInput input;
  input.sets = {{0}};
  std::vector<CandidatePair> cands{{0, 5}};
  EXPECT_FALSE(VerifyCandidates(input, cands, {}).ok());
}

}  // namespace
}  // namespace similarity
}  // namespace crowder

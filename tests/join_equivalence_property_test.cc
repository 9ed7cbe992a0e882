// Randomized property sweep enforcing the exact-equivalence contract of
// similarity_join.h and parallel_join.h: NaiveJoin, AllPairsJoin, token
// blocking + verification (an independent oracle: it shares no filter with
// the prefix join), the parallel/blocked joins and the service's
// incremental index must produce identical pair sets over arbitrary inputs.
//
//   * NaiveJoin ≡ AllPairsJoin — always (same pairs, same scores).
//   * NaiveJoin ≡ TokenBlocking(max_block_size=0) + VerifyCandidates — at a
//     positive threshold, since any qualifying pair shares at least one
//     token and therefore co-occurs in a block.
//   * NaiveJoin ≡ ParallelAllPairsJoin ≡ the collected blocks of
//     BlockedAllPairsJoinStream — at every thread count, chunk size, and
//     block size (the parallel dimension of the sweep rotates through
//     {1, 2, 4, 7} threads and tiny-to-large chunks/blocks so scheduling
//     churn can never leak into the output).
//   * NaiveJoin ≡ serve::IncrementalIndex, fed record by record with
//     re-ranks mid-stream — at a positive threshold.
//
// Unlike the curated cases in similarity_join_test.cc, every dimension here
// is drawn at random from a master seed: input size, vocabulary size, token
// distribution, record length (including empty sets), self- vs cross-source
// joins, and Jaccard thresholds across [0, 1]. A second
// sweep draws the shapes the prefix filters are most sensitive to: records
// of up to ~320 tokens (prefix and posting offsets past 255), one record
// far larger than all the others, and three or more source labels including
// negative and extreme values. This is the sweep that caught NaiveJoin
// emitting empty-empty pairs at positive thresholds (fixed; see CHANGES.md).
//
// The prefix-filtering joins also report the same JoinStats counters at
// every thread count, chunk size and block size, and obey the counter laws
// of similarity_join.h, as does the incremental index; a crafted input pins
// the exact count the positional filter must prune, in both indexes.
#include <gtest/gtest.h>

#include <climits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/incremental_index.h"
#include "similarity/blocking.h"
#include "similarity/parallel_join.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace similarity {
namespace {

// Source labels a case draws from: the first num_labels entries. Two labels
// give the classic two-source join; more mix negative and extreme values.
constexpr int kLabels[] = {0, 1, -1, INT_MAX, INT_MIN, 1000003, -42};

struct RandomCase {
  uint64_t seed = 0;
  size_t n = 0;
  uint32_t vocab = 0;
  size_t max_len = 0;
  bool allow_empty_sets = false;
  /// 0 = self-join; otherwise records draw labels from kLabels[0, num_labels).
  uint32_t num_labels = 0;
  /// Tokens beyond the vocabulary carried by one outlier record, which also
  /// holds the whole vocabulary (0 = no outlier).
  size_t outlier_extra = 0;
  double threshold = 0.0;

  std::string Describe() const {
    std::ostringstream os;
    os << "seed=" << seed << " n=" << n << " vocab=" << vocab << " max_len=" << max_len
       << " empty=" << allow_empty_sets << " labels=" << num_labels
       << " outlier_extra=" << outlier_extra << " threshold=" << threshold;
    return os.str();
  }
};

RandomCase DrawCase(Rng* rng) {
  static const double kThresholds[] = {0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                                       0.9, 0.95, 1.0};
  RandomCase c;
  c.seed = rng->Next64();
  c.n = 8 + rng->Uniform(96);
  c.vocab = 4 + static_cast<uint32_t>(rng->Uniform(120));
  c.max_len = 1 + rng->Uniform(12);
  c.allow_empty_sets = rng->Uniform(4) == 0;
  c.num_labels = rng->Uniform(2) == 0 ? 2 : 0;
  c.threshold = kThresholds[rng->Uniform(sizeof(kThresholds) / sizeof(kThresholds[0]))];
  return c;
}

// A base draw reshaped into one of the shapes the prefix filters are most
// sensitive to: long records, one outlier record, or many source labels.
RandomCase DrawWideCase(Rng* rng) {
  RandomCase c = DrawCase(rng);
  switch (rng->Uniform(3)) {
    case 0:  // long records: prefix and posting offsets pass 255
      c.n = 8 + rng->Uniform(40);
      c.vocab = 300 + static_cast<uint32_t>(rng->Uniform(300));
      c.max_len = 256 + rng->Uniform(64);
      break;
    case 1:  // one record far larger than every other
      c.outlier_extra = 200 + rng->Uniform(800);
      break;
    default:  // three or more labels, negative and extreme ones included
      c.num_labels = 3 + static_cast<uint32_t>(rng->Uniform(5));
      break;
  }
  return c;
}

JoinInput GenerateInput(const RandomCase& c) {
  Rng rng(c.seed);
  JoinInput input;
  input.sets.reserve(c.n);
  for (size_t i = 0; i < c.n; ++i) {
    std::vector<text::TokenId> tokens;
    const size_t min_len = c.allow_empty_sets ? 0 : 1;
    const size_t len = min_len + rng.Uniform(c.max_len + 1 - min_len);
    for (size_t t = 0; t < len; ++t) {
      // Zipf-ish token frequencies, as in real text. Long records are mostly
      // the run 0, 1, 2, ... with one token in eight drawn at random, so
      // they keep hundreds of distinct tokens and still pair with each
      // other.
      if (c.max_len > 128) {
        const uint64_t token = rng.Uniform(8) == 0 ? rng.Uniform(c.vocab) : t;
        tokens.push_back(static_cast<text::TokenId>(token));
      } else {
        tokens.push_back(static_cast<text::TokenId>(rng.Zipf(c.vocab, 0.9)));
      }
    }
    input.sets.push_back(MakeTokenSet(std::move(tokens)));
    if (c.num_labels > 0) input.sources.push_back(kLabels[rng.Uniform(c.num_labels)]);
  }
  if (c.outlier_extra > 0) {
    std::vector<text::TokenId> tokens(c.vocab + c.outlier_extra);
    for (size_t t = 0; t < tokens.size(); ++t) tokens[t] = static_cast<text::TokenId>(t);
    input.sets[rng.Uniform(c.n)] = std::move(tokens);
  }
  return input;
}

void ExpectSamePairs(const std::vector<ScoredPair>& expected,
                     const std::vector<ScoredPair>& actual, bool compare_scores,
                     const std::string& what, const std::string& context) {
  ASSERT_EQ(expected.size(), actual.size()) << what << " pair count diverged; " << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].a, actual[i].a) << what << " pair " << i << "; " << context;
    ASSERT_EQ(expected[i].b, actual[i].b) << what << " pair " << i << "; " << context;
    if (compare_scores) {
      ASSERT_NEAR(expected[i].score, actual[i].score, 1e-12)
          << what << " score of (" << expected[i].a << "," << expected[i].b << "); " << context;
    }
  }
}

// Blocking + verification with all blocks kept: exact at a positive
// threshold.
Result<std::vector<ScoredPair>> BlockingVerify(const JoinInput& input,
                                               const JoinOptions& options) {
  BlockingOptions blocking;
  blocking.max_block_size = 0;
  CROWDER_ASSIGN_OR_RETURN(auto candidates, TokenBlocking(input, blocking));
  return VerifyCandidates(input, candidates, options);
}

// Every block BlockedAllPairsJoinStream emits, collected and canonicalized.
Result<std::vector<ScoredPair>> CollectBlocks(const JoinInput& input, const JoinOptions& options,
                                              const ParallelJoinOptions& exec_options,
                                              JoinStats* stats = nullptr) {
  std::vector<ScoredPair> out;
  CROWDER_RETURN_NOT_OK(BlockedAllPairsJoinStream(
      input, options, exec_options,
      [&out](std::vector<ScoredPair>&& block) {
        out.insert(out.end(), block.begin(), block.end());
        return Status::OK();
      },
      stats));
  SortPairs(&out);
  return out;
}

// Inserts every record, in id order and with its source label, into one
// incremental index that re-ranks at 4, 8, 16, ... records, and returns
// the emitted pairs in SortPairs order.
Result<std::vector<ScoredPair>> IncrementalJoin(const JoinInput& input, double threshold,
                                                JoinStats* stats) {
  serve::IncrementalIndexOptions options;
  options.threshold = threshold;
  options.cross_source_only = !input.sources.empty();
  options.rebuild_base = 4;
  CROWDER_ASSIGN_OR_RETURN(serve::IncrementalIndex index, serve::IncrementalIndex::Create(options));
  std::vector<ScoredPair> out;
  for (size_t i = 0; i < input.sets.size(); ++i) {
    const int source = input.sources.empty() ? 0 : input.sources[i];
    CROWDER_ASSIGN_OR_RETURN(auto emitted, index.Insert(input.sets[i], source, stats));
    out.insert(out.end(), emitted.begin(), emitted.end());
  }
  SortPairs(&out);
  return out;
}

// The counter laws of JoinStats (similarity_join.h).
void ExpectCounterLaws(const JoinStats& stats, size_t emitted, const std::string& context) {
  EXPECT_LE(emitted, stats.pair_verifications) << context;
  EXPECT_LE(stats.pair_verifications + stats.candidates_pruned, stats.postings_scanned)
      << context;
}

void ExpectSameCounters(const JoinStats& expected, const JoinStats& actual,
                        const std::string& what, const std::string& context) {
  EXPECT_EQ(expected.pair_verifications, actual.pair_verifications) << what << "; " << context;
  EXPECT_EQ(expected.postings_scanned, actual.postings_scanned) << what << "; " << context;
  EXPECT_EQ(expected.candidates_pruned, actual.candidates_pruned) << what << "; " << context;
}

// One sweep case: every join agrees with NaiveJoin, and at a positive
// threshold the prefix-filtering joins count the same counters, which obey
// the laws. Returns whether the blocking leg ran. Case `i` picks the
// parallel knobs: thread counts the contract pins (1 = serial engine path,
// 2/4 = typical, 7 = odd and oversubscribed on small machines) crossed with
// chunk/block sizes from degenerate to larger-than-input.
bool CheckCase(const RandomCase& c, int i) {
  static const uint32_t kThreads[] = {1, 2, 4, 7};
  static const uint32_t kChunks[] = {1, 3, 16, 1024};
  static const uint32_t kBlocks[] = {1, 5, 32, 4096};
  const std::string context = "case " + std::to_string(i) + ": " + c.Describe();
  const JoinInput input = GenerateInput(c);
  JoinOptions options;
  options.threshold = c.threshold;

  JoinStats serial_stats;
  auto naive = NaiveJoin(input, options);
  auto all_pairs = AllPairsJoin(input, options, &serial_stats);
  EXPECT_TRUE(naive.ok()) << context;
  EXPECT_TRUE(all_pairs.ok()) << context;
  if (!naive.ok() || !all_pairs.ok()) return false;
  ExpectSamePairs(*naive, *all_pairs, /*compare_scores=*/true, "AllPairsJoin", context);

  ParallelJoinOptions exec_options;
  exec_options.num_threads = kThreads[i % 4];
  exec_options.chunk_size = kChunks[(i / 4) % 4];
  exec_options.block_records = kBlocks[(i / 16) % 4];
  const std::string par_context = context + " threads=" +
                                  std::to_string(exec_options.num_threads) +
                                  " chunk=" + std::to_string(exec_options.chunk_size) +
                                  " block=" + std::to_string(exec_options.block_records);
  JoinStats parallel_stats;
  JoinStats blocked_stats;
  auto parallel = ParallelAllPairsJoin(input, options, exec_options, &parallel_stats);
  auto blocked_join = CollectBlocks(input, options, exec_options, &blocked_stats);
  EXPECT_TRUE(parallel.ok()) << par_context;
  EXPECT_TRUE(blocked_join.ok()) << par_context;
  if (!parallel.ok() || !blocked_join.ok()) return false;
  ExpectSamePairs(*naive, *parallel, /*compare_scores=*/true, "ParallelAllPairsJoin",
                  par_context);
  ExpectSamePairs(*naive, *blocked_join, /*compare_scores=*/true, "BlockedAllPairsJoinStream",
                  par_context);

  // Blocking is exact only at positive thresholds (a qualifying pair must
  // share a token); at threshold 0 disjoint pairs qualify without sharing
  // any block, so the equivalence deliberately excludes it — as do the
  // counter laws, which hold for prefix filtering only, and the incremental
  // index, which rejects threshold 0.
  if (c.threshold <= 0.0) return false;
  ExpectCounterLaws(serial_stats, all_pairs->size(), context);
  ExpectSameCounters(serial_stats, parallel_stats, "ParallelAllPairsJoin", par_context);
  ExpectSameCounters(serial_stats, blocked_stats, "BlockedAllPairsJoinStream", par_context);
  JoinStats incremental_stats;
  auto incremental = IncrementalJoin(input, c.threshold, &incremental_stats);
  EXPECT_TRUE(incremental.ok()) << context;
  if (!incremental.ok()) return false;
  ExpectSamePairs(*naive, *incremental, /*compare_scores=*/true, "IncrementalIndex", context);
  ExpectCounterLaws(incremental_stats, incremental->size(), context + " (IncrementalIndex)");
  auto blocked = BlockingVerify(input, options);
  EXPECT_TRUE(blocked.ok()) << context;
  if (!blocked.ok()) return false;
  ExpectSamePairs(*naive, *blocked, /*compare_scores=*/true, "BlockingVerify", context);
  return true;
}

TEST(JoinEquivalenceProperty, RandomSweep) {
  // One master seed fans out into every random decision, so a failure
  // reproduces from the per-case seed printed in its context string.
  Rng master(20260730);
  constexpr int kCases = 250;
  int blocking_checked = 0;
  for (int i = 0; i < kCases; ++i) {
    if (CheckCase(DrawCase(&master), i)) ++blocking_checked;
    if (HasFailure()) return;
  }
  // The threshold grid draws 0.0 one time in thirteen; the blocking leg of
  // the property must still see substantial coverage.
  EXPECT_GT(blocking_checked, kCases / 2);
}

TEST(JoinEquivalenceProperty, WideShapesSweep) {
  // Long records, one outlier record, and many source labels — the shapes
  // the indexing-prefix and positional filters are most sensitive to.
  Rng master(20261017);
  constexpr int kCases = 120;
  size_t long_pairs = 0;  // emitted pairs of two records past 255 tokens
  for (int i = 0; i < kCases; ++i) {
    const RandomCase c = DrawWideCase(&master);
    CheckCase(c, i);
    if (HasFailure()) return;
    if (c.max_len < 256 || c.threshold <= 0.0) continue;
    const JoinInput input = GenerateInput(c);
    const auto pairs = AllPairsJoin(input, {c.threshold});
    ASSERT_TRUE(pairs.ok());
    for (const ScoredPair& p : *pairs) {
      if (input.sets[p.a].size() > 255 && input.sets[p.b].size() > 255) ++long_pairs;
    }
  }
  // The long shape must actually pair long records, or offsets past 255
  // would only ever be pruned, never verified.
  EXPECT_GT(long_pairs, 0u);
}

TEST(JoinEquivalenceProperty, CountersAgreeAcrossThreadsChunksAndBlocks) {
  // The counters of a position's probe do not depend on how positions are
  // split, so every variant and knob reports the serial join's values.
  Rng master(31337);
  for (uint32_t labels : {0u, 2u, 5u}) {
    RandomCase c = DrawCase(&master);
    c.n = 300;
    c.num_labels = labels;
    c.threshold = 0.3;
    const JoinInput input = GenerateInput(c);
    JoinOptions options;
    options.threshold = c.threshold;
    JoinStats serial;
    const auto pairs = AllPairsJoin(input, options, &serial);
    ASSERT_TRUE(pairs.ok());
    ExpectCounterLaws(serial, pairs->size(), c.Describe());
    EXPECT_GT(serial.postings_scanned, 0u) << c.Describe();
    for (uint32_t threads : {1u, 2u, 4u, 7u}) {
      for (uint32_t knob : {1u, 8u, 64u, 4096u}) {
        ParallelJoinOptions exec_options;
        exec_options.num_threads = threads;
        exec_options.chunk_size = knob;
        exec_options.block_records = knob;
        const std::string context = c.Describe() + " threads=" + std::to_string(threads) +
                                    " chunk/block=" + std::to_string(knob);
        JoinStats parallel;
        JoinStats blocked;
        ASSERT_TRUE(ParallelAllPairsJoin(input, options, exec_options, &parallel).ok());
        ASSERT_TRUE(CollectBlocks(input, options, exec_options, &blocked).ok());
        ExpectSameCounters(serial, parallel, "ParallelAllPairsJoin", context);
        ExpectSameCounters(serial, blocked, "BlockedAllPairsJoinStream", context);
      }
    }
  }
}

TEST(JoinEquivalenceProperty, PositionalFilterPrunesCraftedCandidate) {
  // Every token occurs exactly twice, so token ranks equal token ids. At
  // Jaccard 0.5 two 4-token records need an overlap of 3; a 4-token record
  // indexes its first 2 tokens and probes with its first 3.
  //   r0 = {0, 3, 5, 6} indexes {0, 3}; r1 = {1, 2, 3, 4} probes {1, 2, 3}.
  // r1 reaches r0 through token 3 (r1 offset 2, r0 offset 1), with nothing
  // shared before it: the overlap is at most 0 + 1 + min(1, 2) = 2 < 3, so
  // the candidate is pruned unverified. r2 = {0, 1, 2, 4, 5, 6} then meets
  // both and verifies both (overlap 3 each, below the 4 a 6-by-4 pair needs).
  // Postings read: r1 scans one (token 3), r2 three (tokens 0, 1, 2).
  // Inserted in this order, the incremental index meets the same postings:
  // it indexes a 4-token record's whole 3-token probe prefix, but r2 never
  // probes tokens 3 or 5.
  JoinInput input;
  input.sets = {{0, 3, 5, 6}, {1, 2, 3, 4}, {0, 1, 2, 4, 5, 6}};
  JoinOptions options;
  options.threshold = 0.5;
  JoinStats serial;
  const auto pairs = AllPairsJoin(input, options, &serial);
  ASSERT_TRUE(pairs.ok());
  EXPECT_TRUE(pairs->empty());
  EXPECT_EQ(serial.pair_verifications, 2u);
  EXPECT_EQ(serial.candidates_pruned, 1u);
  EXPECT_EQ(serial.postings_scanned, 4u);
  for (uint32_t threads : {1u, 2u, 4u, 7u}) {
    ParallelJoinOptions exec_options;
    exec_options.num_threads = threads;
    exec_options.chunk_size = 1;
    exec_options.block_records = 1;
    JoinStats parallel;
    JoinStats blocked;
    ASSERT_TRUE(ParallelAllPairsJoin(input, options, exec_options, &parallel).ok());
    ASSERT_TRUE(CollectBlocks(input, options, exec_options, &blocked).ok());
    ExpectSameCounters(serial, parallel, "ParallelAllPairsJoin", std::to_string(threads));
    ExpectSameCounters(serial, blocked, "BlockedAllPairsJoinStream", std::to_string(threads));
  }
  JoinStats incremental_stats;
  const auto incremental = IncrementalJoin(input, options.threshold, &incremental_stats);
  ASSERT_TRUE(incremental.ok());
  EXPECT_TRUE(incremental->empty());
  ExpectSameCounters(serial, incremental_stats, "IncrementalIndex", "crafted");
}

TEST(JoinEquivalenceProperty, EmptySetsNeverPairAtPositiveThreshold) {
  // Regression for the bug this sweep caught: empty sets score 1.0 under
  // Jaccard, but must never be emitted at a positive threshold — including
  // by the parallel and blocked joins at several thread counts.
  JoinInput input;
  input.sets = {{}, {}, {}, {0, 1}};
  for (double threshold : {0.25, 0.5, 0.75, 1.0}) {
    JoinOptions options;
    options.threshold = threshold;
    auto naive = NaiveJoin(input, options);
    auto all_pairs = AllPairsJoin(input, options);
    auto blocked = BlockingVerify(input, options);
    ASSERT_TRUE(naive.ok() && all_pairs.ok() && blocked.ok());
    EXPECT_TRUE(naive->empty()) << "threshold " << threshold;
    EXPECT_TRUE(all_pairs->empty()) << "threshold " << threshold;
    EXPECT_TRUE(blocked->empty()) << "threshold " << threshold;
    for (uint32_t threads : {1u, 2u, 4u, 7u}) {
      ParallelJoinOptions exec_options;
      exec_options.num_threads = threads;
      exec_options.chunk_size = 1;
      exec_options.block_records = 2;
      auto parallel = ParallelAllPairsJoin(input, options, exec_options);
      auto blocked_join = CollectBlocks(input, options, exec_options);
      ASSERT_TRUE(parallel.ok() && blocked_join.ok());
      EXPECT_TRUE(parallel->empty()) << "threshold " << threshold << " threads " << threads;
      EXPECT_TRUE(blocked_join->empty()) << "threshold " << threshold << " threads " << threads;
    }
  }
}

TEST(JoinEquivalenceProperty, ParallelJoinsAreByteIdenticalToSerial) {
  // The parallel contract is *byte*-identical output post-SortPairs, not
  // just approximately equal scores: same pairs, bitwise-equal doubles.
  // Exercised on self- and cross-source inputs across the thread grid.
  Rng master(424242);
  for (bool two_sources : {false, true}) {
    RandomCase c = DrawCase(&master);
    c.n = 300;
    c.num_labels = two_sources ? 2 : 0;
    c.threshold = 0.3;
    const JoinInput input = GenerateInput(c);
    JoinOptions options;
    options.threshold = c.threshold;
    const auto serial = AllPairsJoin(input, options);
    ASSERT_TRUE(serial.ok());
    for (uint32_t threads : {1u, 2u, 4u, 7u}) {
      for (uint32_t chunk : {1u, 8u, 4096u}) {
        ParallelJoinOptions exec_options;
        exec_options.num_threads = threads;
        exec_options.chunk_size = chunk;
        exec_options.block_records = 64;
        const std::string context = std::string("two_sources=") +
                                    (two_sources ? "1" : "0") + " threads=" +
                                    std::to_string(threads) + " chunk=" + std::to_string(chunk);
        auto parallel = ParallelAllPairsJoin(input, options, exec_options);
        auto blocked = CollectBlocks(input, options, exec_options);
        ASSERT_TRUE(parallel.ok() && blocked.ok()) << context;
        for (const auto* variant : {&*parallel, &*blocked}) {
          ASSERT_EQ(serial->size(), variant->size()) << context;
          for (size_t i = 0; i < serial->size(); ++i) {
            ASSERT_EQ((*serial)[i].a, (*variant)[i].a) << context;
            ASSERT_EQ((*serial)[i].b, (*variant)[i].b) << context;
            ASSERT_EQ((*serial)[i].score, (*variant)[i].score) << context;  // bitwise
          }
        }
      }
    }
  }
}

TEST(JoinEquivalenceProperty, BlockedStreamEmitsDisjointBlocksCoveringTheJoin) {
  // The streaming driver's contract: blocks arrive internally sorted, are
  // pairwise disjoint, and their union is exactly the serial join output.
  Rng master(99);
  RandomCase c = DrawCase(&master);
  c.n = 200;
  c.threshold = 0.2;
  const JoinInput input = GenerateInput(c);
  JoinOptions options;
  options.threshold = c.threshold;
  const auto serial = AllPairsJoin(input, options);
  ASSERT_TRUE(serial.ok());

  ParallelJoinOptions exec_options;
  exec_options.num_threads = 4;
  exec_options.chunk_size = 8;
  exec_options.block_records = 16;
  std::vector<ScoredPair> all;
  size_t num_blocks = 0;
  const Status status = BlockedAllPairsJoinStream(
      input, options, exec_options, [&](std::vector<ScoredPair>&& block) {
        ++num_blocks;
        for (size_t i = 1; i < block.size(); ++i) {
          EXPECT_TRUE(block[i - 1].a < block[i].a ||
                      (block[i - 1].a == block[i].a && block[i - 1].b < block[i].b))
              << "block " << num_blocks << " not sorted";
        }
        all.insert(all.end(), block.begin(), block.end());
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(num_blocks, (200 + 15) / 16u);
  SortPairs(&all);
  ASSERT_NO_FATAL_FAILURE(ExpectSamePairs(*serial, all, /*compare_scores=*/true,
                                          "BlockedAllPairsJoinStream", "stream"));
  // Disjointness: after sorting, adjacent duplicates would betray a pair
  // emitted by two blocks.
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_FALSE(all[i - 1].a == all[i].a && all[i - 1].b == all[i].b);
  }
}

TEST(JoinEquivalenceProperty, StreamSinkErrorAbortsJoin) {
  Rng master(5);
  RandomCase c = DrawCase(&master);
  c.n = 64;
  c.threshold = 0.1;
  const JoinInput input = GenerateInput(c);
  JoinOptions options;
  options.threshold = c.threshold;
  ParallelJoinOptions exec_options;
  exec_options.num_threads = 2;
  exec_options.block_records = 8;
  size_t calls = 0;
  const Status status = BlockedAllPairsJoinStream(
      input, options, exec_options, [&calls](std::vector<ScoredPair>&&) {
        ++calls;
        return Status::IOError("sink full");
      });
  EXPECT_TRUE(status.IsIOError());
  EXPECT_EQ(calls, 1u);
}

TEST(JoinEquivalenceProperty, ZeroThresholdStillEquivalentAcrossJoins) {
  // threshold == 0 admits every admissible pair; AllPairsJoin must still
  // agree with the reference even though prefix filtering degenerates.
  Rng master(7);
  for (int i = 0; i < 10; ++i) {
    RandomCase c = DrawCase(&master);
    c.threshold = 0.0;
    const std::string context = c.Describe();
    const JoinInput input = GenerateInput(c);
    JoinOptions options;
    options.threshold = 0.0;
    auto naive = NaiveJoin(input, options);
    auto all_pairs = AllPairsJoin(input, options);
    ASSERT_TRUE(naive.ok() && all_pairs.ok()) << context;
    ASSERT_NO_FATAL_FAILURE(
        ExpectSamePairs(*naive, *all_pairs, /*compare_scores=*/true, "AllPairsJoin", context));
  }
}

}  // namespace
}  // namespace similarity
}  // namespace crowder

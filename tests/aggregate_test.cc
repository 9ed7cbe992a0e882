// Tests for answer aggregation: majority vote and Dawid-Skene EM, including
// the property that the EM over the sharded vote table equals a reference EM
// bitwise at any partitioning, at any budget and under any ban set; and
// Fleiss' kappa, the per-round agreement signal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "aggregate/agreement.h"
#include "aggregate/dawid_skene.h"
#include "aggregate/majority_vote.h"
#include "aggregate/partitioned.h"
#include "common/rng.h"

namespace crowder {
namespace aggregate {
namespace {

TEST(MajorityVoteTest, FractionOfYes) {
  VoteTable votes{{{0, true}, {1, true}, {2, false}}, {{0, false}, {1, false}, {2, false}}};
  const auto p = MajorityVote(votes);
  EXPECT_NEAR(p[0], 2.0 / 3.0, 1e-12);
  EXPECT_EQ(p[1], 0.0);
}

TEST(MajorityVoteTest, EmptyVotesAreZero) {
  VoteTable votes{{}, {{0, true}}};
  const auto p = MajorityVote(votes);
  EXPECT_EQ(p[0], 0.0);
  EXPECT_EQ(p[1], 1.0);
}

TEST(DawidSkeneTest, UnanimousVotesConverge) {
  VoteTable votes;
  for (int i = 0; i < 6; ++i) {
    votes.push_back({{0, i < 3}, {1, i < 3}, {2, i < 3}});
  }
  auto r = RunDawidSkene(votes);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  for (int i = 0; i < 3; ++i) EXPECT_GT(r->match_probability[i], 0.9);
  for (int i = 3; i < 6; ++i) EXPECT_LT(r->match_probability[i], 0.1);
}

TEST(DawidSkeneTest, EmptyTable) {
  auto r = RunDawidSkene({});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_TRUE(r->match_probability.empty());
}

TEST(DawidSkeneTest, PairsWithoutVotesStayZero) {
  VoteTable votes{{}, {{0, true}, {1, true}}};
  auto r = RunDawidSkene(votes);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->match_probability[0], 0.0);
  EXPECT_GT(r->match_probability[1], 0.5);
}

// The paper adopts EM over simple averaging because it is robust to
// spammers. Synthetic reproduction: 2 reliable workers + 3 aligned spammers
// whose votes are random-but-shared noise. Majority vote is dominated by
// spam; EM should recover by learning worker quality.
TEST(DawidSkeneTest, BeatsMajorityVoteUnderSpam) {
  Rng rng(1234);
  const int num_pairs = 300;
  VoteTable votes(num_pairs);
  std::vector<bool> truth(num_pairs);
  for (int i = 0; i < num_pairs; ++i) {
    truth[i] = rng.Bernoulli(0.4);
    // Two honest workers (5% error), ids 0 and 1.
    for (uint32_t w = 0; w < 2; ++w) {
      const bool err = rng.Bernoulli(0.05);
      votes[i].push_back({w, err ? !truth[i] : truth[i]});
    }
    // Three spammers (ids 2..4) answering random coin flips.
    for (uint32_t w = 2; w < 5; ++w) {
      votes[i].push_back({w, rng.Bernoulli(0.5)});
    }
  }

  const auto mv = MajorityVote(votes);
  auto ds = RunDawidSkene(votes);
  ASSERT_TRUE(ds.ok());

  int mv_correct = 0;
  int ds_correct = 0;
  for (int i = 0; i < num_pairs; ++i) {
    mv_correct += ((mv[i] >= 0.5) == truth[i]);
    ds_correct += ((ds->match_probability[i] >= 0.5) == truth[i]);
  }
  EXPECT_GT(ds_correct, mv_correct);
  EXPECT_GT(ds_correct, num_pairs * 0.93);
}

TEST(DawidSkeneTest, LearnsWorkerQuality) {
  Rng rng(77);
  const int num_pairs = 400;
  VoteTable votes(num_pairs);
  for (int i = 0; i < num_pairs; ++i) {
    const bool truth = rng.Bernoulli(0.5);
    votes[i].push_back({0, rng.Bernoulli(0.02) ? !truth : truth});  // good worker
    votes[i].push_back({1, rng.Bernoulli(0.30) ? !truth : truth});  // sloppy worker
    votes[i].push_back({2, rng.Bernoulli(0.5)});                    // spammer
  }
  auto ds = RunDawidSkene(votes);
  ASSERT_TRUE(ds.ok());
  const auto& w0 = ds->workers.at(0);
  const auto& w1 = ds->workers.at(1);
  const auto& w2 = ds->workers.at(2);
  EXPECT_GT(w0.sensitivity, w1.sensitivity);
  EXPECT_GT(w0.specificity, w1.specificity);
  // Spammer quality hovers near chance.
  EXPECT_NEAR(w2.sensitivity, 0.5, 0.12);
  EXPECT_NEAR(w2.specificity, 0.5, 0.12);
  EXPECT_EQ(w0.num_votes, static_cast<uint32_t>(num_pairs));
}

TEST(DawidSkeneTest, ClassPriorTracksBaseRate) {
  Rng rng(5);
  const int num_pairs = 500;
  VoteTable votes(num_pairs);
  for (int i = 0; i < num_pairs; ++i) {
    const bool truth = i < num_pairs / 5;  // 20% matches
    for (uint32_t w = 0; w < 3; ++w) {
      votes[i].push_back({w, rng.Bernoulli(0.05) ? !truth : truth});
    }
  }
  auto ds = RunDawidSkene(votes);
  ASSERT_TRUE(ds.ok());
  EXPECT_NEAR(ds->class_prior, 0.2, 0.05);
}

TEST(DawidSkeneTest, NoLabelFlipOnTinyCleanInput) {
  // Regression test for the degenerate flipped fixed point: a tiny vote
  // table with near-perfect workers must keep unanimous "no" pairs near 0.
  VoteTable votes{
      {{0, true}, {1, true}, {2, true}},    // match
      {{0, false}, {1, false}, {2, false}}, // non-match
      {{3, false}, {4, false}, {5, false}}, // non-match
      {{3, true}, {4, true}, {5, true}},    // match
  };
  auto ds = RunDawidSkene(votes);
  ASSERT_TRUE(ds.ok());
  EXPECT_GT(ds->match_probability[0], 0.5);
  EXPECT_LT(ds->match_probability[1], 0.5);
  EXPECT_LT(ds->match_probability[2], 0.5);
  EXPECT_GT(ds->match_probability[3], 0.5);
}

TEST(DawidSkeneTest, DisagreementYieldsIntermediateProbability) {
  VoteTable votes{{{0, true}, {1, false}}};
  auto ds = RunDawidSkene(votes);
  ASSERT_TRUE(ds.ok());
  EXPECT_GT(ds->match_probability[0], 0.05);
  EXPECT_LT(ds->match_probability[0], 0.95);
}

// Fleiss' kappa takes per-subject (yes, total) vote counts.
TEST(FleissKappaTest, UnanimousSubjectsGiveOne) {
  // Each subject unanimous, the categories mixed across subjects.
  EXPECT_EQ(FleissKappa({3, 0, 2}, {3, 3, 2}), 1.0);
}

TEST(FleissKappaTest, SubjectsWithFewerThanTwoVotesAreSkipped) {
  // No eligible subject at all: degenerate-perfect.
  EXPECT_EQ(FleissKappa({}, {}), 1.0);
  EXPECT_EQ(FleissKappa({1, 0, 0}, {1, 1, 0}), 1.0);
  // Single-vote and voteless subjects leave a table's kappa unchanged.
  const std::vector<uint32_t> yes = {3, 2, 0, 1};
  const std::vector<uint32_t> total = {3, 3, 3, 4};
  const std::vector<uint32_t> yes_padded = {1, 3, 0, 2, 0, 0, 1};
  const std::vector<uint32_t> total_padded = {1, 3, 1, 3, 0, 3, 4};
  EXPECT_EQ(FleissKappa(yes_padded, total_padded), FleissKappa(yes, total));
}

TEST(FleissKappaTest, AllVotesInOneCategoryGiveOne) {
  // 1 - P_e vanishes; the agreement is perfect, not undefined.
  EXPECT_EQ(FleissKappa({0, 0}, {3, 2}), 1.0);
  EXPECT_EQ(FleissKappa({4, 2}, {4, 2}), 1.0);
}

TEST(FleissKappaTest, MixedTableMatchesTheUnequalRatersFormula) {
  // P_i = (yes(yes-1) + no(no-1)) / (n(n-1)) per subject: 1, 1/3, 1, 1/2,
  // so P_bar = 17/24. The pooled yes share is 6/13, so
  // P_e = (36 + 49) / 169 = 85/169, and
  // kappa = (17/24 - 85/169) / (84/169) = 833/2016 = 119/288.
  EXPECT_NEAR(FleissKappa({3, 2, 0, 1}, {3, 3, 3, 4}), 119.0 / 288.0, 1e-12);
}

TEST(FleissKappaTest, LessAgreementThanChanceIsNegative) {
  // Every subject split evenly: P_bar = 0 against P_e = 1/2.
  const double kappa = FleissKappa({1, 1, 1}, {2, 2, 2});
  EXPECT_LT(kappa, 0.0);
  EXPECT_NEAR(kappa, -1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Partitioned aggregation: the flat sharded EM equals a reference EM
// bitwise, at any partitioning and under any ban set.
// ---------------------------------------------------------------------------

// The reference: the map-keyed Dawid-Skene EM and E-step the flat
// implementation replaced, kept verbatim (a stored-posterior loop over a
// materialized table, one unordered_map entry per worker).
struct ReferenceFit {
  std::unordered_map<uint32_t, WorkerQuality> workers;
  double class_prior = 0.5;
  int iterations = 0;
  bool converged = false;
};

double ReferencePosterior(const std::vector<Vote>& pair_votes, const ReferenceFit& model) {
  if (pair_votes.empty()) return kUnjudgedMatchProbability;
  if (model.workers.empty()) return MajorityMatchProbability(pair_votes);
  double log_pos = std::log(model.class_prior);
  double log_neg = std::log(1.0 - model.class_prior);
  for (const Vote& v : pair_votes) {
    const WorkerQuality& w = model.workers.at(v.worker_id);
    if (v.says_match) {
      log_pos += std::log(w.sensitivity);
      log_neg += std::log(1.0 - w.specificity);
    } else {
      log_pos += std::log(1.0 - w.sensitivity);
      log_neg += std::log(w.specificity);
    }
  }
  const double m = std::max(log_pos, log_neg);
  const double pos = std::exp(log_pos - m);
  const double neg = std::exp(log_neg - m);
  return pos / (pos + neg);
}

ReferenceFit ReferenceEm(const VoteTable& table) {
  const double s = kDawidSkeneSmoothing;
  const double good = kDawidSkenePriorCorrect;
  const double bad = kDawidSkenePriorIncorrect;
  ReferenceFit prev;
  ReferenceFit older;
  for (int t = 0;; ++t) {
    std::unordered_map<uint32_t, double> sens_sum;
    std::unordered_map<uint32_t, double> spec_sum;
    std::unordered_map<uint32_t, double> pos_mass;
    std::unordered_map<uint32_t, double> neg_mass;
    std::unordered_map<uint32_t, uint32_t> vote_count;
    double prior_num = 0.0;
    size_t judged = 0;
    double max_delta = 0.0;
    for (const auto& pair_votes : table) {
      if (pair_votes.empty()) continue;
      const double p = t == 0 ? MajorityMatchProbability(pair_votes)
                              : ReferencePosterior(pair_votes, prev);
      if (t >= 1) {
        const double p_old = t == 1 ? MajorityMatchProbability(pair_votes)
                                    : ReferencePosterior(pair_votes, older);
        max_delta = std::max(max_delta, std::fabs(p - p_old));
      }
      ++judged;
      prior_num += p;
      for (const Vote& v : pair_votes) {
        ++vote_count[v.worker_id];
        pos_mass[v.worker_id] += p;
        neg_mass[v.worker_id] += 1.0 - p;
        if (v.says_match) {
          sens_sum[v.worker_id] += p;
        } else {
          spec_sum[v.worker_id] += 1.0 - p;
        }
      }
    }
    if (judged == 0) {
      ReferenceFit model;
      model.converged = true;
      return model;
    }
    if (t >= 1 && max_delta < kDawidSkeneTolerance) {
      prev.converged = true;
      return prev;
    }
    if (t == kDawidSkeneMaxIterations) return prev;
    ReferenceFit next;
    next.class_prior =
        std::clamp((prior_num + s) / (static_cast<double>(judged) + 2.0 * s), 0.01, 0.99);
    for (const auto& [id, count] : vote_count) {
      WorkerQuality w;
      w.num_votes = count;
      w.sensitivity = (sens_sum[id] + good) / (pos_mass[id] + good + bad);
      w.specificity = (spec_sum[id] + good) / (neg_mass[id] + good + bad);
      w.sensitivity = std::clamp(w.sensitivity, 1e-4, 1.0 - 1e-4);
      w.specificity = std::clamp(w.specificity, 1e-4, 1.0 - 1e-4);
      next.workers.emplace(id, w);
    }
    next.iterations = t + 1;
    older = std::move(prev);
    prev = std::move(next);
  }
}

// A random vote table: `num_pairs` pairs, a random subset voteless, votes
// from a pool that always includes the extreme ids 0, 2^31 and UINT32_MAX,
// with mixed reliability.
VoteTable RandomVoteTable(Rng* rng, size_t num_pairs) {
  const std::vector<uint32_t> pool = {0,  uint32_t{1} << 31, UINT32_MAX, 7, 12, 99, 1000,
                                      (uint32_t{1} << 31) - 1, 54321, UINT32_MAX - 1};
  VoteTable votes(num_pairs);
  for (auto& pair_votes : votes) {
    if (rng->Bernoulli(0.15)) continue;  // voteless pair
    const uint64_t count = 1 + rng->Uniform(5);
    for (uint64_t v = 0; v < count; ++v) {
      pair_votes.push_back({pool[rng->Uniform(pool.size())], rng->Bernoulli(0.55)});
    }
  }
  return votes;
}

// A random partition of [0, total) into consecutive shard sizes: one-pair
// shards are frequent, and empty shards are included on purpose (a
// partition may legitimately be voteless or pairless).
std::vector<size_t> RandomShardSizes(Rng* rng, size_t total) {
  std::vector<size_t> sizes;
  size_t assigned = 0;
  while (assigned < total) {
    const size_t want = rng->Bernoulli(0.3) ? 1 : rng->Uniform(40);
    const size_t size = std::min<size_t>(total - assigned, want);
    sizes.push_back(size);
    assigned += size;
  }
  if (sizes.empty() || rng->Bernoulli(0.3)) sizes.push_back(0);
  return sizes;
}

// A random ban set: sometimes empty, sometimes naming workers of the
// table's pool (possibly every worker that voted), sometimes ids that never
// voted.
std::unordered_set<uint32_t> RandomBans(Rng* rng, const VoteTable& votes) {
  std::unordered_set<uint32_t> banned;
  const uint64_t mode = rng->Uniform(4);
  if (mode == 0) return banned;
  for (const auto& pair_votes : votes) {
    for (const Vote& v : pair_votes) {
      if (mode == 3 || rng->Bernoulli(0.1)) banned.insert(v.worker_id);
    }
  }
  banned.insert(424242);  // never voted
  return banned;
}

// Files `votes` into `store`, pair by pair in cast order, and finishes it
// without the votes of `banned`.
void Load(const VoteTable& votes, const std::unordered_set<uint32_t>& banned,
          VoteShardStore* store) {
  for (size_t i = 0; i < votes.size(); ++i) {
    for (const Vote& v : votes[i]) ASSERT_TRUE(store->Append(i, v).ok());
  }
  ASSERT_TRUE(store->Finish(banned).ok());
}

// The flat fit and every flat posterior, pair-aligned, through `store`.
struct FlatRun {
  DawidSkeneModel model;
  std::vector<double> posteriors;
};

FlatRun RunFlat(const VoteShardStore& store) {
  FlatRun run;
  Result<DawidSkeneModel> fit = FitDawidSkeneSharded(store);
  EXPECT_TRUE(fit.ok()) << fit.status().ToString();
  if (!fit.ok()) return run;
  run.model = std::move(fit).ValueOrDie();
  std::vector<double> shard_probabilities;
  for (size_t shard = 0; shard < store.num_shards(); ++shard) {
    EXPECT_TRUE(ShardMatchProbabilities(store, shard, run.model, &shard_probabilities).ok());
    run.posteriors.insert(run.posteriors.end(), shard_probabilities.begin(),
                          shard_probabilities.end());
  }
  return run;
}

void ExpectBitwiseEqual(const FlatRun& run, const ReferenceFit& ref,
                        const std::vector<double>& ref_posteriors, const std::string& label) {
  EXPECT_EQ(run.model.class_prior, ref.class_prior) << label;
  EXPECT_EQ(run.model.iterations, ref.iterations) << label;
  EXPECT_EQ(run.model.converged, ref.converged) << label;
  ASSERT_EQ(run.model.workers.size(), ref.workers.size()) << label;
  for (const auto& [id, w] : ref.workers) {
    const auto it = run.model.workers.find(id);
    ASSERT_NE(it, run.model.workers.end()) << label << " worker " << id;
    EXPECT_EQ(it->second.sensitivity, w.sensitivity) << label << " worker " << id;
    EXPECT_EQ(it->second.specificity, w.specificity) << label << " worker " << id;
    EXPECT_EQ(it->second.num_votes, w.num_votes) << label << " worker " << id;
  }
  ASSERT_EQ(run.posteriors.size(), ref_posteriors.size()) << label;
  for (size_t i = 0; i < ref_posteriors.size(); ++i) {
    EXPECT_EQ(run.posteriors[i], ref_posteriors[i]) << label << " pair " << i;
  }
}

// The property: over random tables, ban sets and shard splits, the flat
// sharded EM through VoteShardStore — every vote filed, the ban set given to
// Finish, unbounded and under a budget that spills every shard — and
// RunDawidSkene over the surviving votes equal the reference EM over the
// surviving votes bitwise — model, iteration count, convergence flag and
// every posterior — and majority fractions equal MajorityVote. Shards tile
// the pair order and the E-step adds the same logs in the same order, so
// the results match exactly, not merely within EM tolerance.
TEST(PartitionedAggregationTest, FlatEmEqualsReferenceEmBitwise) {
  Rng rng(20260731);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t num_pairs = rng.Uniform(120);
    const VoteTable votes = RandomVoteTable(&rng, num_pairs);
    const std::unordered_set<uint32_t> banned = RandomBans(&rng, votes);
    VoteTable surviving = votes;
    RemoveVotesFrom(&surviving, banned);

    const ReferenceFit ref = ReferenceEm(surviving);
    std::vector<double> ref_posteriors;
    for (const auto& pair_votes : surviving) {
      ref_posteriors.push_back(ReferencePosterior(pair_votes, ref));
    }
    const std::string label = "trial " + std::to_string(trial);

    const auto ds = RunDawidSkene(surviving);
    ASSERT_TRUE(ds.ok());
    FlatRun materialized;
    materialized.model.workers = ds->workers;
    materialized.model.class_prior = ds->class_prior;
    materialized.model.iterations = ds->iterations;
    materialized.model.converged = ds->converged;
    materialized.posteriors = ds->match_probability;
    ExpectBitwiseEqual(materialized, ref, ref_posteriors, label + " RunDawidSkene");

    const std::vector<double> mv = MajorityVote(surviving);
    for (int split = 0; split < 3; ++split) {
      const std::vector<size_t> sizes = RandomShardSizes(&rng, num_pairs);
      const std::vector<uint64_t> counts(sizes.begin(), sizes.end());
      // Budget 0 keeps every shard resident; a few bytes spill them all.
      for (const uint64_t budget : {uint64_t{0}, uint64_t{8}}) {
        const std::string split_label =
            label + " split " + std::to_string(split) + " budget " + std::to_string(budget);
        VoteShardStore store(budget, counts);
        Load(votes, banned, &store);
        ExpectBitwiseEqual(RunFlat(store), ref, ref_posteriors, split_label);

        // Majority fractions under an unfitted model, shard by shard.
        std::vector<double> probabilities;
        size_t start = 0;
        for (size_t shard = 0; shard < sizes.size(); ++shard) {
          ASSERT_TRUE(
              ShardMatchProbabilities(store, shard, DawidSkeneModel{}, &probabilities).ok());
          ASSERT_EQ(probabilities.size(), sizes[shard]);
          for (size_t i = 0; i < probabilities.size(); ++i) {
            EXPECT_EQ(probabilities[i], mv[start + i]) << split_label << " pair " << start + i;
          }
          start += sizes[shard];
        }
      }
    }
  }
}

TEST(PartitionedAggregationTest, VotelessPairsGetTheUnjudgedProbability) {
  // The one documented policy point (votes.h): never asked means never
  // confirmed, in every aggregator.
  VoteTable votes{{}, {{0, true}}};
  EXPECT_EQ(MajorityVote(votes)[0], kUnjudgedMatchProbability);
  const auto ds = RunDawidSkene(votes).ValueOrDie();
  EXPECT_EQ(ds.match_probability[0], kUnjudgedMatchProbability);
  EXPECT_EQ(MajorityMatchProbability({}), kUnjudgedMatchProbability);
}

// The rows of one flat shard, as (offsets, votes) vectors.
std::pair<std::vector<uint32_t>, std::vector<uint32_t>> Rows(const FlatVoteShard& flat) {
  if (flat.num_rows == 0) return {};
  return {std::vector<uint32_t>(flat.offsets, flat.offsets + flat.num_rows + 1),
          std::vector<uint32_t>(flat.votes, flat.votes + flat.offsets[flat.num_rows])};
}

TEST(PartitionedAggregationTest, FlattensWithDenseWorkersAndTrimmedRows) {
  // Dense ids follow first appearance, banned voters included; rows stop
  // at the last pair with a surviving vote.
  VoteTable votes{{{UINT32_MAX, true}, {0, false}}, {}, {{0, true}, {5, false}}, {}, {{5, true}}};
  VoteShardStore store(/*memory_budget_bytes=*/0, {2, 3});
  Load(votes, /*banned=*/{5}, &store);
  EXPECT_EQ(store.worker_ids(), (std::vector<uint32_t>{UINT32_MAX, 0, 5}));
  EXPECT_EQ(store.total_votes(), 5u);
  ASSERT_TRUE(store.WithShard(0, [](const FlatVoteShard& flat) {
                     EXPECT_EQ(flat.num_pairs, 2u);
                     EXPECT_EQ(Rows(flat).first, (std::vector<uint32_t>{0, 2}));
                     EXPECT_EQ(Rows(flat).second,
                               (std::vector<uint32_t>{PackVote(0, true), PackVote(1, false)}));
                     return Status::OK();
                   }).ok());
  ASSERT_TRUE(store.WithShard(1, [](const FlatVoteShard& flat) {
                     EXPECT_EQ(flat.num_pairs, 3u);
                     EXPECT_EQ(Rows(flat).first, (std::vector<uint32_t>{0, 1}));
                     EXPECT_EQ(Rows(flat).second, std::vector<uint32_t>{PackVote(1, true)});
                     return Status::OK();
                   }).ok());
  EXPECT_TRUE(store.WithShard(2, [](const FlatVoteShard&) { return Status::OK(); })
                  .IsOutOfRange());
}

// ---------------------------------------------------------------------------
// VoteShardStore
// ---------------------------------------------------------------------------

// Decodes one flat shard back to per-pair votes with original worker ids
// (num_pairs rows; pairs past the shard's offsets are voteless).
VoteTable Unpack(VoteShardStore* store, size_t shard) {
  VoteTable table;
  const std::vector<uint32_t>& ids = store->worker_ids();
  EXPECT_TRUE(store
                  ->WithShard(shard,
                              [&](const FlatVoteShard& flat) {
                                table.resize(static_cast<size_t>(flat.num_pairs));
                                for (size_t row = 0; row < flat.num_rows; ++row) {
                                  for (uint32_t i = flat.offsets[row]; i < flat.offsets[row + 1];
                                       ++i) {
                                    const uint32_t v = flat.votes[i];
                                    table[row].push_back({ids[v >> 1], (v & 1u) != 0});
                                  }
                                }
                                return Status::OK();
                              })
                  .ok());
  return table;
}

TEST(VoteShardStoreTest, GroupsVotesByPairPreservingCastOrder) {
  // 10 pairs tiled into shards of 4/4/2; votes arrive interleaved across
  // shards and pairs, as cluster-HIT ranges produce them.
  VoteShardStore store(/*memory_budget_bytes=*/0, {4, 4, 2});
  ASSERT_TRUE(store.Append(9, {1, true}).ok());
  ASSERT_TRUE(store.Append(0, {2, false}).ok());
  ASSERT_TRUE(store.Append(5, {3, true}).ok());
  ASSERT_TRUE(store.Append(0, {4, true}).ok());
  ASSERT_TRUE(store.Append(9, {5, false}).ok());
  EXPECT_TRUE(store.WithShard(0, [](const FlatVoteShard&) {
                     return Status::OK();
                   }).IsInvalidArgument());  // read before Finish
  ASSERT_TRUE(store.Finish().ok());
  EXPECT_TRUE(store.Finish().IsInvalidArgument());

  // Dense worker ids follow first appearance.
  EXPECT_EQ(store.worker_ids(), (std::vector<uint32_t>{1, 2, 3, 4, 5}));

  const auto shard0 = Unpack(&store, 0);
  ASSERT_EQ(shard0.size(), 4u);
  ASSERT_EQ(shard0[0].size(), 2u);
  EXPECT_EQ(shard0[0][0].worker_id, 2u);  // cast order kept
  EXPECT_FALSE(shard0[0][0].says_match);
  EXPECT_EQ(shard0[0][1].worker_id, 4u);
  EXPECT_TRUE(shard0[0][1].says_match);
  EXPECT_TRUE(shard0[1].empty());

  const auto shard1 = Unpack(&store, 1);
  ASSERT_EQ(shard1[1].size(), 1u);  // global pair 5 = local 1
  EXPECT_EQ(shard1[1][0].worker_id, 3u);

  const auto shard2 = Unpack(&store, 2);
  ASSERT_EQ(shard2[1].size(), 2u);  // global pair 9 = local 1
  EXPECT_EQ(shard2[1][0].worker_id, 1u);
  EXPECT_EQ(shard2[1][1].worker_id, 5u);

  EXPECT_EQ(store.total_votes(), 5u);
  EXPECT_EQ(store.shard_start(2), 8u);
  EXPECT_EQ(store.shard_pairs(2), 2u);
  EXPECT_TRUE(store.WithShard(3, [](const FlatVoteShard&) {
                     return Status::OK();
                   }).IsOutOfRange());
  EXPECT_TRUE(store.Append(1, {0, true}).IsInvalidArgument());  // append after Finish
}

TEST(VoteShardStoreTest, ForcedSpillCompactsToTheUnboundedStoresShards) {
  // Votes arrive out of pair order and jump between shards, as repair and
  // re-ask rounds file them. A budget of a few bytes spills every staged
  // block and every compacted shard; the flat shards must still equal the
  // unbounded store's, byte for byte, and decode to the per-pair cast
  // order the votes were filed in.
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint64_t> counts;
    uint64_t total = 0;
    const uint64_t num_shards = 1 + rng.Uniform(6);
    for (uint64_t s = 0; s < num_shards; ++s) {
      counts.push_back(1 + rng.Uniform(50));
      total += counts.back();
    }
    VoteShardStore unbounded(0, counts);
    VoteShardStore spilling(8, counts);
    VoteTable expected(static_cast<size_t>(total));
    const uint64_t num_votes = rng.Uniform(3000);
    for (uint64_t n = 0; n < num_votes; ++n) {
      const uint64_t pair = rng.Uniform(total);
      const Vote vote{static_cast<uint32_t>(rng.Uniform(40)) * 104729u,
                                 rng.Bernoulli(0.5)};
      ASSERT_TRUE(unbounded.Append(pair, vote).ok());
      ASSERT_TRUE(spilling.Append(pair, vote).ok());
      expected[static_cast<size_t>(pair)].push_back(vote);
    }
    ASSERT_TRUE(unbounded.Finish().ok());
    ASSERT_TRUE(spilling.Finish().ok());
    EXPECT_EQ(unbounded.spilled_bytes(), 0u);
    if (num_votes > 0) {
      EXPECT_GT(spilling.spilled_bytes(), 0u);
    }
    EXPECT_EQ(spilling.worker_ids(), unbounded.worker_ids());
    EXPECT_EQ(spilling.total_votes(), num_votes);

    size_t start = 0;
    for (size_t shard = 0; shard < counts.size(); ++shard) {
      std::pair<std::vector<uint32_t>, std::vector<uint32_t>> want;
      ASSERT_TRUE(unbounded.WithShard(shard, [&](const FlatVoteShard& flat) {
                               EXPECT_EQ(flat.num_pairs, counts[shard]);
                               want = Rows(flat);
                               return Status::OK();
                             }).ok());
      for (int read = 0; read < 2; ++read) {  // reads are repeatable
        ASSERT_TRUE(spilling.WithShard(shard, [&](const FlatVoteShard& flat) {
                               EXPECT_EQ(flat.num_pairs, counts[shard]);
                               EXPECT_EQ(Rows(flat), want);
                               return Status::OK();
                             }).ok());
      }
      const auto decoded = Unpack(&spilling, shard);
      for (size_t i = 0; i < decoded.size(); ++i) {
        const auto& pair_votes = expected[start + i];
        ASSERT_EQ(decoded[i].size(), pair_votes.size()) << "pair " << start + i;
        for (size_t k = 0; k < pair_votes.size(); ++k) {
          EXPECT_EQ(decoded[i][k].worker_id, pair_votes[k].worker_id);
          EXPECT_EQ(decoded[i][k].says_match, pair_votes[k].says_match);
        }
      }
      start += static_cast<size_t>(counts[shard]);
    }
  }
}

}  // namespace
}  // namespace aggregate
}  // namespace crowder

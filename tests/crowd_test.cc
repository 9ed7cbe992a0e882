// Tests for the crowd platform simulator: worker error model, qualification
// test, vote alignment, determinism, latency model, failure injection; and
// the built-in admission filter's thresholds.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "crowd/backend.h"
#include "crowd/crowd_model.h"
#include "crowd/platform.h"
#include "crowd/worker.h"
#include "crowd/worker_filter.h"
#include "hitgen/pair_hit_generator.h"

namespace crowder {
namespace crowd {
namespace {

Worker MakeWorker(WorkerType type, uint64_t seed = 1) {
  return Worker(0, type, 1.0, Rng(seed));
}

TEST(WorkerTest, ReliableErrorLowOnEasyPairs) {
  const Worker w = MakeWorker(WorkerType::kReliable);
  CrowdModel model;
  // Easy pair: hardness 0.
  EXPECT_NEAR(w.ErrorProbability(true, 0.9, 0.0, model), model.reliable_base_error, 1e-12);
  EXPECT_NEAR(w.ErrorProbability(false, 0.1, 0.0, model), model.reliable_base_error, 1e-12);
}

TEST(WorkerTest, HardPairsRaiseError) {
  const Worker w = MakeWorker(WorkerType::kReliable);
  CrowdModel model;
  // A true match with low machine likelihood and max hardness is the worst
  // case for honest workers.
  const double hard = w.ErrorProbability(true, 0.1, 1.0, model);
  const double easy = w.ErrorProbability(true, 0.1, 0.0, model);
  EXPECT_GT(hard, easy);
  EXPECT_LE(hard, 0.5);
}

TEST(WorkerTest, TrendDirection) {
  const Worker w = MakeWorker(WorkerType::kReliable);
  CrowdModel model;
  // Matches get harder as likelihood falls; non-matches as it rises.
  EXPECT_GT(w.ErrorProbability(true, 0.1, 0.8, model),
            w.ErrorProbability(true, 0.9, 0.8, model));
  EXPECT_GT(w.ErrorProbability(false, 0.9, 0.8, model),
            w.ErrorProbability(false, 0.1, 0.8, model));
}

TEST(WorkerTest, NoisyWorseThanReliable) {
  const Worker reliable = MakeWorker(WorkerType::kReliable);
  const Worker noisy = MakeWorker(WorkerType::kNoisy);
  CrowdModel model;
  EXPECT_GT(noisy.ErrorProbability(true, 0.5, 0.5, model),
            reliable.ErrorProbability(true, 0.5, 0.5, model));
}

TEST(WorkerTest, SpammerIsTruthBlindBiasedCoin) {
  Worker spammer = MakeWorker(WorkerType::kSpammer, 3);
  CrowdModel model;
  // The reported error model is truth-conditional: a yes-biased coin is
  // wrong on a match when it says no (1 - yes_rate) and wrong on a
  // non-match when it says yes (yes_rate). The flat 0.5 the old model
  // reported disagreed with the answers the spammer actually draws.
  EXPECT_EQ(spammer.ErrorProbability(true, 0.5, 0.0, model), 1.0 - model.spammer_yes_rate);
  EXPECT_EQ(spammer.ErrorProbability(false, 0.5, 0.0, model), model.spammer_yes_rate);
  int yes = 0;
  for (int i = 0; i < 2000; ++i) {
    yes += spammer.AnswerPair(false, 0.0, 0.0, model);  // truth irrelevant
  }
  EXPECT_NEAR(yes / 2000.0, model.spammer_yes_rate, 0.05);
}

TEST(WorkerTest, SpammerEmpiricalErrorMatchesReportedProbability) {
  // Consistency between the two halves of the error model: the empirical
  // error rate of drawn answers must approximate ErrorProbability for both
  // truth values (the satellite bugfix's regression pin).
  Worker spammer = MakeWorker(WorkerType::kSpammer, 11);
  CrowdModel model;
  for (const bool truth : {true, false}) {
    int wrong = 0;
    const int kTrials = 4000;
    for (int i = 0; i < kTrials; ++i) {
      wrong += (spammer.AnswerPair(truth, 0.5, 0.0, model) != truth);
    }
    EXPECT_NEAR(static_cast<double>(wrong) / kTrials,
                spammer.ErrorProbability(truth, 0.5, 0.0, model), 0.05)
        << "truth=" << truth;
  }
}

TEST(WorkerTest, HonestWorkersMostlyCorrectOnEasyPairs) {
  Worker w = MakeWorker(WorkerType::kReliable, 5);
  CrowdModel model;
  int correct = 0;
  for (int i = 0; i < 2000; ++i) {
    correct += (w.AnswerPair(true, 0.9, 0.0, model) == true);
  }
  EXPECT_GT(correct, 1900);
}

TEST(WorkerTest, QualificationTestFiltersSpammers) {
  CrowdModel model;
  int honest_pass = 0;
  int spam_pass = 0;
  for (uint64_t s = 0; s < 300; ++s) {
    Worker honest(0, WorkerType::kReliable, 1.0, Rng(s));
    Worker spam(1, WorkerType::kSpammer, 1.0, Rng(s + 1000));
    const std::vector<bool> truths{true, false, true};
    const std::vector<double> likes{0.9, 0.05, 0.55};
    honest_pass += honest.TakeQualificationTest(truths, likes, model);
    spam_pass += spam.TakeQualificationTest(truths, likes, model);
  }
  EXPECT_GT(honest_pass, 250);  // (1-0.02)^3 ~ 94%
  EXPECT_LT(spam_pass, 80);     // ~ 0.55*0.45*0.55 ~ 14%
}

TEST(WorkerPoolTest, MixMatchesFractions) {
  CrowdModel model;
  model.pool_size = 4000;
  Rng rng(11);
  const auto pool = MakeWorkerPool(model, &rng);
  int reliable = 0;
  int noisy = 0;
  int spam = 0;
  for (const auto& w : pool) {
    switch (w.type()) {
      case WorkerType::kReliable:
        ++reliable;
        break;
      case WorkerType::kNoisy:
        ++noisy;
        break;
      case WorkerType::kSpammer:
        ++spam;
        break;
      case WorkerType::kColluder:
      case WorkerType::kSleeper:
        break;  // default model has none
    }
  }
  EXPECT_NEAR(reliable / 4000.0, model.reliable_fraction, 0.03);
  EXPECT_NEAR(noisy / 4000.0, model.noisy_fraction, 0.03);
  EXPECT_NEAR(spam / 4000.0, 1.0 - model.reliable_fraction - model.noisy_fraction, 0.03);
}

// ---------------------------------------------------------------------------
// Platform tests.
// ---------------------------------------------------------------------------

struct Fixture {
  std::vector<similarity::ScoredPair> pairs;
  std::vector<uint32_t> entity_of;

  CrowdContext Context() const { return {&pairs, &entity_of}; }
};

Fixture MakeFixture() {
  Fixture f;
  // Entities: {0,1} match, {2,3} match, (0,2),(1,3) non-match candidates.
  f.entity_of = {10, 10, 20, 20};
  f.pairs = {{0, 1, 0.8}, {2, 3, 0.7}, {0, 2, 0.4}, {1, 3, 0.35}};
  return f;
}

TEST(PlatformTest, PairHitsProduceOneVotePerAssignmentPerPair) {
  const Fixture f = MakeFixture();
  CrowdModel model;
  CrowdPlatform platform(model, 42);
  std::vector<graph::Edge> edges{{0, 1}, {2, 3}, {0, 2}, {1, 3}};
  auto hits = hitgen::GeneratePairHits(edges, 2).ValueOrDie();
  auto run = platform.RunPairHits(hits, f.Context());
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->num_hits, 2u);
  EXPECT_EQ(run->num_assignments, 2u * model.assignments_per_hit);
  for (const auto& votes : run->votes) {
    EXPECT_EQ(votes.size(), model.assignments_per_hit);
  }
}

TEST(PlatformTest, DistinctWorkersPerHit) {
  const Fixture f = MakeFixture();
  CrowdPlatform platform(CrowdModel{}, 7);
  std::vector<graph::Edge> edges{{0, 1}, {2, 3}};
  auto hits = hitgen::GeneratePairHits(edges, 2).ValueOrDie();  // one HIT
  auto run = platform.RunPairHits(hits, f.Context()).ValueOrDie();
  for (const auto& votes : run.votes) {
    std::vector<uint32_t> workers;
    for (const auto& v : votes) workers.push_back(v.worker_id);
    std::sort(workers.begin(), workers.end());
    EXPECT_EQ(std::unique(workers.begin(), workers.end()), workers.end());
  }
}

TEST(PlatformTest, ClusterHitsVoteOnCoveredCandidatesOnly) {
  const Fixture f = MakeFixture();
  CrowdModel model;
  CrowdPlatform platform(model, 21);
  std::vector<hitgen::ClusterBasedHit> hits{{{0, 1, 2}}};  // covers (0,1),(0,2)
  auto run = platform.RunClusterHits(hits, f.Context()).ValueOrDie();
  EXPECT_EQ(run.votes[0].size(), model.assignments_per_hit);  // (0,1)
  EXPECT_EQ(run.votes[2].size(), model.assignments_per_hit);  // (0,2)
  EXPECT_TRUE(run.votes[1].empty());                          // (2,3) not covered
  EXPECT_TRUE(run.votes[3].empty());                          // (1,3) not covered
}

TEST(PlatformTest, DeterministicGivenSeed) {
  const Fixture f = MakeFixture();
  std::vector<hitgen::ClusterBasedHit> hits{{{0, 1, 2, 3}}};
  auto run1 = CrowdPlatform(CrowdModel{}, 99).RunClusterHits(hits, f.Context()).ValueOrDie();
  auto run2 = CrowdPlatform(CrowdModel{}, 99).RunClusterHits(hits, f.Context()).ValueOrDie();
  ASSERT_EQ(run1.votes.size(), run2.votes.size());
  for (size_t i = 0; i < run1.votes.size(); ++i) {
    ASSERT_EQ(run1.votes[i].size(), run2.votes[i].size());
    for (size_t j = 0; j < run1.votes[i].size(); ++j) {
      EXPECT_EQ(run1.votes[i][j].worker_id, run2.votes[i][j].worker_id);
      EXPECT_EQ(run1.votes[i][j].says_match, run2.votes[i][j].says_match);
    }
  }
  EXPECT_EQ(run1.total_seconds, run2.total_seconds);
}

TEST(PlatformTest, CostMatchesPaperFormula) {
  // §7.3: 112 HITs * 3 assignments * $0.025 = $8.40.
  const Fixture f = MakeFixture();
  CrowdModel model;
  EXPECT_NEAR(model.CostPerAssignment(), 0.025, 1e-12);
  CrowdPlatform platform(model, 1);
  std::vector<graph::Edge> edges{{0, 1}};
  auto hits = hitgen::GeneratePairHits(edges, 1).ValueOrDie();
  auto run = platform.RunPairHits(hits, f.Context()).ValueOrDie();
  EXPECT_NEAR(run.cost_dollars, 1 * 3 * 0.025, 1e-9);
}

TEST(PlatformTest, LargerHitsTakeLonger) {
  const Fixture f = MakeFixture();
  CrowdModel model;
  model.speed_sigma = 0.0;  // remove speed noise
  CrowdPlatform p1(model, 5);
  CrowdPlatform p2(model, 5);
  std::vector<graph::Edge> small{{0, 1}};
  std::vector<graph::Edge> big{{0, 1}, {2, 3}, {0, 2}, {1, 3}};
  auto run_small =
      p1.RunPairHits(hitgen::GeneratePairHits(small, 4).ValueOrDie(), f.Context()).ValueOrDie();
  auto run_big =
      p2.RunPairHits(hitgen::GeneratePairHits(big, 4).ValueOrDie(), f.Context()).ValueOrDie();
  EXPECT_LT(run_small.median_assignment_seconds, run_big.median_assignment_seconds);
}

TEST(PlatformTest, QualificationTestShrinksEligiblePool) {
  CrowdModel with_qt;
  with_qt.qualification_test = true;
  CrowdModel without_qt;
  CrowdPlatform p_qt(with_qt, 31);
  CrowdPlatform p_plain(without_qt, 31);
  EXPECT_LT(p_qt.eligible_workers().size(), p_plain.eligible_workers().size());
  EXPECT_GT(p_qt.eligible_workers().size(), 0u);
}

TEST(PlatformTest, AllSpammerPoolWithQtIsInfeasible) {
  CrowdModel model;
  model.reliable_fraction = 0.0;
  model.noisy_fraction = 0.0;
  model.qualification_test = true;
  model.pool_size = 20;
  CrowdPlatform platform(model, 13);
  const Fixture f = MakeFixture();
  std::vector<hitgen::ClusterBasedHit> hits{{{0, 1}}};
  // With ~20 spammers and pass rate ~14% the eligible pool is almost surely
  // < 3; if not, the run still succeeds — accept either, but exercise the
  // validation path.
  auto run = platform.RunClusterHits(hits, f.Context());
  if (!run.ok()) {
    EXPECT_TRUE(run.status().IsInfeasible());
  }
}

TEST(PlatformTest, NullContextRejected) {
  CrowdPlatform platform(CrowdModel{}, 1);
  auto run = platform.RunPairHits({}, CrowdContext{});
  EXPECT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsInvalidArgument());
}

TEST(PlatformTest, UnknownPairInHitRejected) {
  const Fixture f = MakeFixture();
  CrowdPlatform platform(CrowdModel{}, 1);
  std::vector<graph::Edge> edges{{0, 3}};  // not a candidate pair
  auto hits = hitgen::GeneratePairHits(edges, 1).ValueOrDie();
  EXPECT_FALSE(platform.RunPairHits(hits, f.Context()).ok());
}

TEST(PlatformTest, EmptyHitListYieldsEmptyRun) {
  const Fixture f = MakeFixture();
  CrowdPlatform platform(CrowdModel{}, 1);
  auto run = platform.RunClusterHits({}, f.Context()).ValueOrDie();
  EXPECT_EQ(run.num_hits, 0u);
  EXPECT_EQ(run.total_seconds, 0.0);
  EXPECT_EQ(run.cost_dollars, 0.0);
}

TEST(PlatformTest, LowerFamiliarityMeansLongerTotalTime) {
  // The Figure 14 mechanism: fewer attracted workers -> later completion.
  const Fixture f = MakeFixture();
  std::vector<hitgen::ClusterBasedHit> hits;
  for (int i = 0; i < 12; ++i) hits.push_back({{0, 1, 2, 3}});
  CrowdModel familiar;
  familiar.familiarity_cluster = 1.0;
  CrowdModel unfamiliar;
  unfamiliar.familiarity_cluster = 0.2;
  auto fast = CrowdPlatform(familiar, 3).RunClusterHits(hits, f.Context()).ValueOrDie();
  auto slow = CrowdPlatform(unfamiliar, 3).RunClusterHits(hits, f.Context()).ValueOrDie();
  EXPECT_LT(fast.total_seconds, slow.total_seconds);
}

TEST(PlatformTest, QualificationTestIncreasesTotalTime) {
  const Fixture f = MakeFixture();
  std::vector<hitgen::ClusterBasedHit> hits;
  for (int i = 0; i < 12; ++i) hits.push_back({{0, 1, 2, 3}});
  CrowdModel plain;
  CrowdModel gated;
  gated.qualification_test = true;
  auto fast = CrowdPlatform(plain, 5).RunClusterHits(hits, f.Context()).ValueOrDie();
  auto slow = CrowdPlatform(gated, 5).RunClusterHits(hits, f.Context()).ValueOrDie();
  EXPECT_GT(slow.total_seconds, fast.total_seconds * 1.5);
}

TEST(PlatformTest, BiggerBatchesAttractFewerWorkers) {
  // Same total work split into few large vs many small pair HITs: the large
  // batches depress the arrival rate (effort term) and finish later per the
  // model, despite fewer HITs.
  const Fixture f = MakeFixture();
  std::vector<graph::Edge> edges;
  for (int rep = 0; rep < 15; ++rep) {
    edges.push_back({0, 1});
    edges.push_back({2, 3});
    edges.push_back({0, 2});
    edges.push_back({1, 3});
  }
  CrowdModel model;
  model.effort_scale = 10.0;  // make the effort term bite at these sizes
  auto small_hits = hitgen::GeneratePairHits(edges, 4).ValueOrDie();
  auto large_hits = hitgen::GeneratePairHits(edges, 30).ValueOrDie();
  auto small_run = CrowdPlatform(model, 9).RunPairHits(small_hits, f.Context()).ValueOrDie();
  auto large_run = CrowdPlatform(model, 9).RunPairHits(large_hits, f.Context()).ValueOrDie();
  EXPECT_LT(small_run.total_seconds, large_run.total_seconds);
}

TEST(PlatformTest, TotalTimeExceedsLongestAssignment) {
  const Fixture f = MakeFixture();
  CrowdPlatform platform(CrowdModel{}, 17);
  std::vector<hitgen::ClusterBasedHit> hits{{{0, 1, 2, 3}}};
  auto run = platform.RunClusterHits(hits, f.Context()).ValueOrDie();
  double longest = 0.0;
  for (const AssignmentRecord& rec : run.assignments) {
    longest = std::max(longest, rec.duration_seconds);
  }
  EXPECT_GE(run.total_seconds, longest);
}

// ---------------------------------------------------------------------------
// SimulatedCrowdBackend: the batch/thread invariance contracts the workflow is
// built on, each pinned against the one-batch run (CrowdPlatform::Run*Hits).
// ---------------------------------------------------------------------------

// A fixture big enough that batching and threading have something to chew on:
// 24 records in 8 entities, with all intra-entity pairs plus a ring of
// cross-entity pairs as candidates.
Fixture MakeLargeFixture() {
  Fixture f;
  for (uint32_t r = 0; r < 24; ++r) f.entity_of.push_back(100 + r / 3);
  for (uint32_t r = 0; r + 1 < 24; ++r) {
    if (r / 3 == (r + 1) / 3) f.pairs.push_back({r, r + 1, 0.8});  // same entity
    if (r % 3 == 2) f.pairs.push_back({r, r + 1, 0.35});           // entity boundary
  }
  return f;
}

void ExpectSameRun(const CrowdRunResult& x, const CrowdRunResult& y) {
  ASSERT_EQ(x.votes.size(), y.votes.size());
  for (size_t i = 0; i < x.votes.size(); ++i) {
    ASSERT_EQ(x.votes[i].size(), y.votes[i].size()) << "pair " << i;
    for (size_t j = 0; j < x.votes[i].size(); ++j) {
      EXPECT_EQ(x.votes[i][j].worker_id, y.votes[i][j].worker_id);
      EXPECT_EQ(x.votes[i][j].says_match, y.votes[i][j].says_match);
    }
  }
  ASSERT_EQ(x.assignments.size(), y.assignments.size());
  for (size_t i = 0; i < x.assignments.size(); ++i) {
    EXPECT_EQ(x.assignments[i].hit, y.assignments[i].hit);
    EXPECT_EQ(x.assignments[i].worker, y.assignments[i].worker);
    EXPECT_EQ(x.assignments[i].duration_seconds, y.assignments[i].duration_seconds);
  }
  EXPECT_EQ(x.num_hits, y.num_hits);
  EXPECT_EQ(x.num_assignments, y.num_assignments);
  EXPECT_EQ(x.total_seconds, y.total_seconds);
  EXPECT_EQ(x.cost_dollars, y.cost_dollars);
  EXPECT_EQ(x.total_comparisons, y.total_comparisons);
  EXPECT_EQ(x.num_distinct_workers, y.num_distinct_workers);
}

// One posted batch: its own pair context plus its HITs (one list non-empty).
struct Batch {
  std::vector<similarity::ScoredPair> pairs;
  std::vector<hitgen::PairBasedHit> pair_hits;
  std::vector<hitgen::ClusterBasedHit> cluster_hits;
};

// Posts `batches` in order through one backend over `platform` and folds
// the per-HIT votes into a table aligned to `f.pairs` — the shape the
// one-batch run returns, so the two compare field by field.
Result<CrowdRunResult> RunBatches(const CrowdPlatform& platform, const Fixture& f,
                                  const std::vector<Batch>& batches, uint32_t num_threads = 1) {
  SimulatedCrowdOptions options;
  options.num_threads = num_threads;
  CROWDER_ASSIGN_OR_RETURN(
      auto backend,
      SimulatedCrowdBackend::Create(platform.model(), platform.seed(), f.entity_of, options));
  std::unordered_map<uint64_t, size_t> index_of;
  for (size_t i = 0; i < f.pairs.size(); ++i) index_of[PairKey(f.pairs[i].a, f.pairs[i].b)] = i;
  aggregate::VoteTable votes(f.pairs.size());
  uint32_t next_hit = 0;
  for (const Batch& b : batches) {
    HitBatch batch;
    batch.first_hit = next_hit;
    batch.pairs = &b.pairs;
    batch.pair_hits = b.pair_hits.empty() ? nullptr : &b.pair_hits;
    batch.cluster_hits = b.cluster_hits.empty() ? nullptr : &b.cluster_hits;
    next_hit += static_cast<uint32_t>(batch.num_hits());
    CROWDER_ASSIGN_OR_RETURN(const Ticket ticket, backend->Post(batch));
    CROWDER_ASSIGN_OR_RETURN(VoteBatch answer, backend->Poll(ticket));
    for (const HitVotes& hv : answer.hit_votes) {
      for (const PairVote& pv : hv.votes) {
        votes.at(index_of.at(PairKey(pv.a, pv.b))).push_back(pv.vote);
      }
    }
  }
  CROWDER_ASSIGN_OR_RETURN(CrowdRunResult run, backend->Finish());
  if (!run.votes.empty()) return Status::Internal("backend stats carry a vote table");
  run.votes = std::move(votes);
  return run;
}

std::vector<hitgen::ClusterBasedHit> FourRecordClusterHits() {
  std::vector<hitgen::ClusterBasedHit> hits;
  for (uint32_t base = 0; base + 4 <= 24; base += 4) {
    hits.push_back({{base, base + 1, base + 2, base + 3}});
  }
  return hits;
}

TEST(SimulatorBatchingTest, BatchSplitIsInvisible) {
  const Fixture f = MakeLargeFixture();
  std::vector<graph::Edge> edges;
  for (const auto& p : f.pairs) edges.push_back({p.a, p.b});
  const auto hits = hitgen::GeneratePairHits(edges, 3).ValueOrDie();
  ASSERT_GE(hits.size(), 5u);
  const CrowdPlatform platform(CrowdModel{}, 321);

  const auto one_shot = platform.RunPairHits(hits, f.Context()).ValueOrDie();

  // One HIT per batch.
  std::vector<Batch> single;
  for (const auto& hit : hits) single.push_back({f.pairs, {hit}, {}});
  ExpectSameRun(one_shot, RunBatches(platform, f, single).ValueOrDie());

  // An uneven split.
  const std::vector<Batch> split{{f.pairs, {hits.begin(), hits.begin() + 2}, {}},
                                 {f.pairs, {hits.begin() + 2, hits.end()}, {}}};
  ExpectSameRun(one_shot, RunBatches(platform, f, split).ValueOrDie());
}

TEST(SimulatorBatchingTest, ThreadCountIsInvisible) {
  const Fixture f = MakeLargeFixture();
  const auto hits = FourRecordClusterHits();
  const CrowdPlatform platform(CrowdModel{}, 654);
  const auto one_shot = platform.RunClusterHits(hits, f.Context()).ValueOrDie();
  for (uint32_t threads : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE(threads);
    ExpectSameRun(one_shot, RunBatches(platform, f, {{f.pairs, {}, hits}}, threads).ValueOrDie());
  }
}

// Splitting one run into batches that each carry only their own pairs'
// context must reproduce the one-batch run bitwise: the folded per-batch
// votes equal the one-shot vote table, and the global statistics —
// assignments, cost, completion time — are untouched, because HIT indices
// (and hence every per-HIT random stream) keep counting across batches.
TEST(SimulatorBatchingTest, PerBatchPairContextsAreInvisible) {
  const Fixture f = MakeLargeFixture();
  const uint32_t pairs_per_hit = 3;
  std::vector<graph::Edge> edges;
  for (const auto& p : f.pairs) edges.push_back({p.a, p.b});
  const auto hits = hitgen::GeneratePairHits(edges, pairs_per_hit).ValueOrDie();
  const CrowdPlatform platform(CrowdModel{}, 977);
  const auto one_shot = platform.RunPairHits(hits, f.Context()).ValueOrDie();

  // Context capacities aligned to the HIT size (the invisibility
  // precondition), including one that forces many batches.
  for (const size_t capacity : {size_t{3}, size_t{6}, size_t{9}, f.pairs.size()}) {
    SCOPED_TRACE(capacity);
    std::vector<Batch> batches;
    size_t num_hits = 0;
    for (size_t begin = 0; begin < f.pairs.size(); begin += capacity) {
      const size_t end = std::min(f.pairs.size(), begin + capacity);
      Batch batch;
      batch.pairs.assign(f.pairs.begin() + begin, f.pairs.begin() + end);
      std::vector<graph::Edge> part_edges;
      for (const auto& p : batch.pairs) part_edges.push_back({p.a, p.b});
      batch.pair_hits = hitgen::GeneratePairHits(part_edges, pairs_per_hit).ValueOrDie();
      num_hits += batch.pair_hits.size();
      batches.push_back(std::move(batch));
    }
    ASSERT_EQ(num_hits, hits.size());
    ExpectSameRun(one_shot, RunBatches(platform, f, batches).ValueOrDie());
  }
}

// The cluster-HIT analogue: ranges of HITs simulated against a context
// holding only the candidate pairs some HIT of the range asks (both records
// in one HIT, as the driver's range contexts hold them) must vote exactly
// like the full-context run.
TEST(SimulatorBatchingTest, ClusterRangesWithFilteredContextsAreInvisible) {
  const Fixture f = MakeLargeFixture();
  const auto hits = FourRecordClusterHits();
  const CrowdPlatform platform(CrowdModel{}, 1543);
  const auto one_shot = platform.RunClusterHits(hits, f.Context()).ValueOrDie();

  for (const size_t hits_per_range : {size_t{1}, size_t{2}, hits.size()}) {
    SCOPED_TRACE(hits_per_range);
    std::vector<Batch> batches;
    for (size_t begin = 0; begin < hits.size(); begin += hits_per_range) {
      const size_t end = std::min(hits.size(), begin + hits_per_range);
      Batch batch;
      batch.cluster_hits.assign(hits.begin() + begin, hits.begin() + end);
      for (const auto& p : f.pairs) {
        const bool asked = std::any_of(
            batch.cluster_hits.begin(), batch.cluster_hits.end(), [&](const auto& hit) {
              const auto& r = hit.records;
              return std::find(r.begin(), r.end(), p.a) != r.end() &&
                     std::find(r.begin(), r.end(), p.b) != r.end();
            });
        if (asked) batch.pairs.push_back(p);
      }
      batches.push_back(std::move(batch));
    }
    ExpectSameRun(one_shot, RunBatches(platform, f, batches).ValueOrDie());
  }
}

// A cluster round's repair HITs are pair-based and posted over the same
// context: one run may mix the kinds. The cluster HITs vote as in the
// one-batch run, and the first batch's kind selects the completion model's
// interface familiarity.
TEST(SimulatorBatchingTest, PairRepairHitsFollowClusterHits) {
  const Fixture f = MakeLargeFixture();
  const auto hits = FourRecordClusterHits();
  const std::vector<hitgen::PairBasedHit> repair{{{{0, 1}, {1, 2}}}, {{{3, 4}}}};
  const std::vector<Batch> mixed{{f.pairs, {}, hits}, {f.pairs, repair, {}}};

  const CrowdPlatform platform(CrowdModel{}, 88);
  const auto cluster_only = platform.RunClusterHits(hits, f.Context()).ValueOrDie();
  const auto run = RunBatches(platform, f, mixed).ValueOrDie();
  EXPECT_EQ(run.num_hits, hits.size() + repair.size());
  ASSERT_EQ(run.assignments.size(), (hits.size() + repair.size()) * 3);
  for (size_t i = 0; i < cluster_only.assignments.size(); ++i) {
    EXPECT_EQ(run.assignments[i].worker, cluster_only.assignments[i].worker);
    EXPECT_EQ(run.assignments[i].duration_seconds, cluster_only.assignments[i].duration_seconds);
  }
  for (size_t i = 0; i < f.pairs.size(); ++i) {
    const size_t cluster_votes = cluster_only.votes[i].size();
    ASSERT_GE(run.votes[i].size(), cluster_votes) << "pair " << i;
    for (size_t v = 0; v < cluster_votes; ++v) {
      EXPECT_EQ(run.votes[i][v].worker_id, cluster_only.votes[i][v].worker_id);
      EXPECT_EQ(run.votes[i][v].says_match, cluster_only.votes[i][v].says_match);
    }
  }

  CrowdModel pair_familiar;
  pair_familiar.familiarity_pair = 0.05;
  EXPECT_EQ(RunBatches(CrowdPlatform(pair_familiar, 88), f, mixed)->total_seconds,
            run.total_seconds);
  CrowdModel cluster_familiar;
  cluster_familiar.familiarity_cluster = 0.05;
  EXPECT_GT(RunBatches(CrowdPlatform(cluster_familiar, 88), f, mixed)->total_seconds,
            run.total_seconds);
}

TEST(SimulatorBatchingTest, UnknownPairInHitIsReportedFromParallelRegion) {
  const Fixture f = MakeFixture();
  SimulatedCrowdOptions options;
  options.num_threads = 4;
  auto backend = SimulatedCrowdBackend::Create(CrowdModel{}, 5, f.entity_of, options).ValueOrDie();
  const std::vector<hitgen::PairBasedHit> hits{{{{0, 1}}}, {{{0, 3}}}};  // (0,3) not a candidate
  HitBatch batch;
  batch.pairs = &f.pairs;
  batch.pair_hits = &hits;
  EXPECT_TRUE(backend->Post(batch).status().IsInvalidArgument());
  // A failed batch may have merged a prefix of its HITs, so the backend is
  // latched: retrying or finishing must not double-count that prefix.
  const std::vector<hitgen::PairBasedHit> good{{{{0, 1}}}};
  batch.pair_hits = &good;
  EXPECT_TRUE(backend->Post(batch).status().IsInvalidArgument());
  EXPECT_TRUE(backend->Finish().status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// CrowdModel validation: fractions and rates are checked at session/pool
// construction, with the offending field named.
// ---------------------------------------------------------------------------

TEST(CrowdModelValidationTest, DefaultAndBoundaryValuesAreLegal) {
  EXPECT_TRUE(ValidateCrowdModel(CrowdModel{}).ok());

  CrowdModel all_reliable;
  all_reliable.reliable_fraction = 1.0;  // sum exactly 1 with noisy = 0
  all_reliable.noisy_fraction = 0.0;
  EXPECT_TRUE(ValidateCrowdModel(all_reliable).ok());

  CrowdModel all_spammers;  // every fraction at the 0 boundary
  all_spammers.reliable_fraction = 0.0;
  all_spammers.noisy_fraction = 0.0;
  all_spammers.spammer_yes_rate = 1.0;  // rate boundaries are legal too
  EXPECT_TRUE(ValidateCrowdModel(all_spammers).ok());

  CrowdModel adversarial;
  adversarial.reliable_fraction = 0.4;
  adversarial.noisy_fraction = 0.2;
  adversarial.colluder_fraction = 0.25;
  adversarial.sleeper_fraction = 0.15;  // sum exactly 1
  adversarial.colluder_yes_rate = 0.0;
  EXPECT_TRUE(ValidateCrowdModel(adversarial).ok());
}

TEST(CrowdModelValidationTest, OutOfRangeFractionIsNamed) {
  CrowdModel model;
  model.reliable_fraction = -0.1;
  auto status = ValidateCrowdModel(model);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("reliable_fraction"), std::string::npos);

  model = CrowdModel{};
  model.colluder_fraction = 1.5;
  status = ValidateCrowdModel(model);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("colluder_fraction"), std::string::npos);

  model = CrowdModel{};
  model.sleeper_fraction = std::numeric_limits<double>::quiet_NaN();
  status = ValidateCrowdModel(model);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("sleeper_fraction"), std::string::npos);

  model = CrowdModel{};
  model.spammer_yes_rate = 1.01;
  status = ValidateCrowdModel(model);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("spammer_yes_rate"), std::string::npos);
}

TEST(CrowdModelValidationTest, FractionSumAboveOneIsRejected) {
  CrowdModel model;  // defaults already use 0.92; push past 1 with colluders
  model.colluder_fraction = 0.05;
  model.sleeper_fraction = 0.04;  // 0.66 + 0.26 + 0.05 + 0.04 = 1.01
  const auto status = ValidateCrowdModel(model);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("sum to <= 1"), std::string::npos);
}

TEST(CrowdModelValidationTest, ColludersNeedARing) {
  CrowdModel model;
  model.reliable_fraction = 0.5;
  model.noisy_fraction = 0.2;
  model.colluder_fraction = 0.2;
  model.colluder_rings = 0;
  const auto status = ValidateCrowdModel(model);
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("colluder_rings"), std::string::npos);
}

TEST(CrowdModelValidationTest, BackendCreationRejectsMalformedModel) {
  // The enforcement point: a malformed model cannot produce a simulator (the
  // platform constructor cannot return a Status, so Create checks).
  const Fixture f = MakeFixture();
  CrowdModel model;
  model.noisy_fraction = -0.25;
  const auto backend = SimulatedCrowdBackend::Create(model, 9, f.entity_of);
  ASSERT_FALSE(backend.ok());
  EXPECT_TRUE(backend.status().IsInvalidArgument());
  EXPECT_NE(backend.status().message().find("noisy_fraction"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The built-in admission filter.
// ---------------------------------------------------------------------------

WorkerStats StatsOf(uint32_t worker, uint32_t votes, uint32_t agreements) {
  WorkerStats w;
  w.worker = worker;
  w.num_votes = votes;
  w.num_agreements = agreements;
  return w;
}

TEST(ApprovalRateWorkerFilterTest, BansBelowTheRateOnlyWithEnoughVotes) {
  ApprovalRateWorkerFilter filter;
  const std::vector<uint32_t> banned = filter.Review({
      StatsOf(1, 6, 4),    // 0.67 over 6 votes: banned
      StatsOf(2, 5, 0),    // 0.00 over 5 votes: too little evidence yet
      StatsOf(3, 10, 8),   // exactly 0.8: kept
      StatsOf(4, 10, 7),   // 0.7 over 10 votes: banned
      StatsOf(5, 0, 0),    // no votes
  });
  EXPECT_EQ(banned, (std::vector<uint32_t>{1, 4}));
}

}  // namespace
}  // namespace crowd
}  // namespace crowder

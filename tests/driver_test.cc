// Tests for the step/poll WorkflowDriver (core/driver.h): the manual driver
// loop must reproduce HybridWorkflow::Run bitwise in both execution modes,
// embedders can bring their own crowd through CallbackCrowdBackend, and
// hostile vote injection through SubmitVotes — unknown pair keys, duplicate
// submissions, votes after done(), taking the result off a half-answered
// run — fails with clean Status errors that never corrupt state (the
// failed_ latch discipline). A bounded cluster run's rounds, repairs
// included, ask only pairs their own HITs cover.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/driver.h"
#include "core/workflow.h"
#include "crowd/async_backend.h"
#include "crowd/backend.h"
#include "data/generators.h"
#include "eval/metrics.h"

namespace crowder {
namespace core {
namespace {

data::Dataset SmallRestaurant() {
  data::RestaurantConfig config;
  config.num_records = 120;
  config.num_duplicate_pairs = 20;
  config.num_chains = 4;
  config.seed = 3;
  return data::GenerateRestaurant(config).ValueOrDie();
}

WorkflowConfig BaseConfig() {
  WorkflowConfig config;
  config.likelihood_threshold = 0.35;
  config.cluster_size = 5;
  config.pairs_per_hit = 5;
  config.seed = 17;
  return config;
}

// Runs the manual driver loop against a fresh simulated backend.
Result<WorkflowResult> DriveManually(const WorkflowConfig& config,
                                     const data::Dataset& dataset) {
  crowd::SimulatedCrowdOptions options;
  options.num_threads = config.num_threads;
  CROWDER_ASSIGN_OR_RETURN(auto backend,
                           crowd::SimulatedCrowdBackend::Create(
                               config.crowd, config.seed, dataset.truth.entity_of, options));
  WorkflowDriver driver(config);
  CROWDER_RETURN_NOT_OK(driver.Start(dataset));
  while (!driver.done()) {
    CROWDER_ASSIGN_OR_RETURN(const crowd::Ticket ticket, backend->Post(driver.PendingHits()));
    CROWDER_ASSIGN_OR_RETURN(crowd::VoteBatch votes, backend->Poll(ticket));
    CROWDER_RETURN_NOT_OK(driver.SubmitVotes(std::move(votes)));
    CROWDER_RETURN_NOT_OK(driver.Step());
  }
  CROWDER_ASSIGN_OR_RETURN(crowd::CrowdRunResult stats, backend->Finish());
  CROWDER_RETURN_NOT_OK(driver.SubmitCrowdStats(std::move(stats)));
  return driver.TakeResult();
}

void ExpectBitwiseEqual(const WorkflowResult& a, const WorkflowResult& b) {
  ASSERT_EQ(a.ranked.size(), b.ranked.size());
  for (size_t i = 0; i < a.ranked.size(); ++i) {
    EXPECT_EQ(a.ranked[i].a, b.ranked[i].a);
    EXPECT_EQ(a.ranked[i].b, b.ranked[i].b);
    EXPECT_EQ(a.ranked[i].score, b.ranked[i].score);
  }
  EXPECT_EQ(a.crowd_stats.num_hits, b.crowd_stats.num_hits);
  EXPECT_EQ(a.crowd_stats.num_assignments, b.crowd_stats.num_assignments);
  EXPECT_EQ(a.crowd_stats.cost_dollars, b.crowd_stats.cost_dollars);
  EXPECT_EQ(a.crowd_stats.total_seconds, b.crowd_stats.total_seconds);
  EXPECT_EQ(a.machine_recall, b.machine_recall);
}

TEST(WorkflowDriverTest, ManualLoopMatchesRunInEveryMode) {
  const auto dataset = SmallRestaurant();
  for (const HitType hit_type : {HitType::kClusterBased, HitType::kPairBased}) {
    for (const bool streaming : {false, true}) {
      WorkflowConfig config = BaseConfig();
      config.hit_type = hit_type;
      if (streaming) {
        config.execution_mode = ExecutionMode::kStreaming;
        config.crowd_partition_pairs = 64;  // several rounds
        config.memory_budget_bytes = 1024;  // force the spill paths too
      }
      auto via_run = HybridWorkflow(config).Run(dataset);
      ASSERT_TRUE(via_run.ok()) << via_run.status().ToString();
      auto via_driver = DriveManually(config, dataset);
      ASSERT_TRUE(via_driver.ok()) << via_driver.status().ToString();
      ExpectBitwiseEqual(*via_run, *via_driver);
    }
  }
}

TEST(WorkflowDriverTest, CallbackBackendOracleCrowd) {
  // A ground-truth oracle through CallbackCrowdBackend: pair-based HITs,
  // one perfect worker. The posterior separates matches perfectly, so the
  // only F1 loss is machine-pass pruning.
  const auto dataset = SmallRestaurant();
  WorkflowConfig config = BaseConfig();
  config.hit_type = HitType::kPairBased;
  config.aggregation = AggregationMethod::kMajorityVote;

  const auto& entity_of = dataset.truth.entity_of;
  int batches_seen = 0;
  crowd::CallbackCrowdBackend oracle(
      [&](const crowd::HitBatch& batch) -> Result<crowd::VoteBatch> {
        ++batches_seen;
        crowd::VoteBatch votes;
        for (size_t i = 0; i < batch.pair_hits->size(); ++i) {
          crowd::HitVotes hv;
          hv.hit = batch.first_hit + static_cast<uint32_t>(i);
          for (const graph::Edge& e : (*batch.pair_hits)[i].pairs) {
            crowd::PairVote pv;
            pv.a = e.a;
            pv.b = e.b;
            pv.vote.worker_id = 0;
            pv.vote.says_match = entity_of[e.a] == entity_of[e.b];
            hv.votes.push_back(pv);
          }
          crowd::AssignmentRecord rec;
          rec.hit = hv.hit;
          rec.duration_seconds = 3.0;
          rec.comparisons = hv.votes.size();
          votes.assignments.push_back(rec);
          votes.hit_votes.push_back(std::move(hv));
        }
        return votes;
      });

  auto result = HybridWorkflow(config).Run(dataset, &oracle);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(batches_seen, 1);  // materialized mode: one all-HITs round
  EXPECT_GT(result->crowd_stats.num_hits, 0u);
  EXPECT_EQ(result->crowd_stats.num_assignments, result->crowd_stats.num_hits);
  EXPECT_EQ(result->crowd_stats.cost_dollars, 0.0);  // callback knows no platform
  // Every ranked score is either confidently yes or confidently no.
  for (const auto& rp : result->ranked) {
    EXPECT_EQ(rp.is_match, rp.score > 0.5);
  }
  EXPECT_NEAR(eval::BestF1(result->pr_curve), result->machine_recall, 1e-9);
}

// ---------------------------------------------------------------------------
// Hostile vote injection through SubmitVotes.
// ---------------------------------------------------------------------------

// Starts a driver and answers nothing: the pending batch is live.
struct OpenRun {
  WorkflowDriver driver;
  std::unique_ptr<crowd::SimulatedCrowdBackend> backend;
  crowd::VoteBatch honest_votes;

  explicit OpenRun(const WorkflowConfig& config) : driver(config) {}
};

std::unique_ptr<OpenRun> StartOpenRun(const WorkflowConfig& config,
                                      const data::Dataset& dataset) {
  auto run = std::make_unique<OpenRun>(config);
  crowd::SimulatedCrowdOptions options;
  EXPECT_TRUE(run->driver.Start(dataset).ok());
  run->backend = crowd::SimulatedCrowdBackend::Create(config.crowd, config.seed,
                                                      dataset.truth.entity_of, options)
                     .ValueOrDie();
  auto ticket = run->backend->Post(run->driver.PendingHits());
  EXPECT_TRUE(ticket.ok());
  auto votes = run->backend->Poll(ticket.ValueOrDie());
  EXPECT_TRUE(votes.ok());
  run->honest_votes = std::move(votes).ValueOrDie();
  return run;
}

TEST(SubmitVotesHostileTest, UnknownPairKeyIsRejectedAndLatches) {
  const auto dataset = SmallRestaurant();
  auto run = StartOpenRun(BaseConfig(), dataset);

  // Inject a vote on a pair that is not in the batch's candidate context.
  crowd::VoteBatch hostile = run->honest_votes;
  crowd::PairVote bogus;
  bogus.a = 0;
  bogus.b = 1;  // records exist, but (0,1) is not a candidate pair here
  ASSERT_FALSE(run->driver.PendingHits().pairs->empty());
  for (const auto& p : *run->driver.PendingHits().pairs) {
    ASSERT_FALSE(p.a == bogus.a && p.b == bogus.b) << "test premise broken";
  }
  hostile.hit_votes.front().votes.push_back(bogus);

  const Status rejected = run->driver.SubmitVotes(std::move(hostile));
  EXPECT_TRUE(rejected.IsInvalidArgument());
  EXPECT_NE(rejected.message().find("unknown pair"), std::string::npos) << rejected;

  // The latch: the driver is poisoned — even an honest retry is refused,
  // and no result can ever be taken from the corrupt-transport run.
  EXPECT_TRUE(run->driver.SubmitVotes(run->honest_votes).IsInvalidArgument());
  EXPECT_TRUE(run->driver.Step().IsInvalidArgument());
  EXPECT_FALSE(run->driver.TakeResult().ok());
}

TEST(SubmitVotesHostileTest, AssignmentOutsideBatchIsRejectedAndLatches) {
  const auto dataset = SmallRestaurant();
  auto run = StartOpenRun(BaseConfig(), dataset);

  crowd::VoteBatch hostile = run->honest_votes;
  crowd::AssignmentRecord bogus;
  bogus.hit = static_cast<uint32_t>(run->driver.PendingHits().num_hits());  // one past
  hostile.assignments.push_back(bogus);

  const Status rejected = run->driver.SubmitVotes(std::move(hostile));
  EXPECT_TRUE(rejected.IsInvalidArgument());
  EXPECT_NE(rejected.message().find("outside the pending batch"), std::string::npos);
  EXPECT_TRUE(run->driver.Step().IsInvalidArgument());  // latched
}

TEST(SubmitVotesHostileTest, DuplicateSubmissionIsRejected) {
  const auto dataset = SmallRestaurant();
  auto run = StartOpenRun(BaseConfig(), dataset);

  ASSERT_TRUE(run->driver.SubmitVotes(run->honest_votes).ok());
  const Status duplicate = run->driver.SubmitVotes(run->honest_votes);
  EXPECT_TRUE(duplicate.IsInvalidArgument());
  EXPECT_NE(duplicate.message().find("duplicate vote submission"), std::string::npos);

  // Protocol misuse does not latch: the run completes normally afterwards,
  // and the double-submitted votes were not double-filed (bitwise equality
  // with a clean run proves it).
  ASSERT_TRUE(run->driver.Step().ok());
  ASSERT_TRUE(run->driver.done());
  ASSERT_TRUE(run->driver.SubmitCrowdStats(run->backend->Finish().ValueOrDie()).ok());
  auto result = run->driver.TakeResult();
  ASSERT_TRUE(result.ok());
  auto clean = HybridWorkflow(BaseConfig()).Run(dataset);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(result->ranked.size(), clean->ranked.size());
  for (size_t i = 0; i < clean->ranked.size(); ++i) {
    EXPECT_EQ(result->ranked[i].score, clean->ranked[i].score);
  }
}

TEST(SubmitVotesHostileTest, VotesAfterDoneAreRejected) {
  const auto dataset = SmallRestaurant();
  auto run = StartOpenRun(BaseConfig(), dataset);
  ASSERT_TRUE(run->driver.SubmitVotes(run->honest_votes).ok());
  ASSERT_TRUE(run->driver.Step().ok());
  ASSERT_TRUE(run->driver.done());

  const Status late = run->driver.SubmitVotes(run->honest_votes);
  EXPECT_TRUE(late.IsInvalidArgument());
  EXPECT_NE(late.message().find("done()"), std::string::npos);
  // Not a corruption: the result is still intact and takeable.
  EXPECT_TRUE(run->driver.TakeResult().ok());
}

TEST(SubmitVotesHostileTest, PartialBatchThenTakeResultIsRejected) {
  const auto dataset = SmallRestaurant();
  auto run = StartOpenRun(BaseConfig(), dataset);

  // Nothing submitted yet: the run is mid-batch ("partial batch").
  auto too_early = run->driver.TakeResult();
  ASSERT_FALSE(too_early.ok());
  EXPECT_NE(too_early.status().message().find("unanswered"), std::string::npos);
  EXPECT_TRUE(run->driver.Step().IsInvalidArgument());  // unanswered round

  // Submitted but not stepped: still not done.
  ASSERT_TRUE(run->driver.SubmitVotes(run->honest_votes).ok());
  auto mid_step = run->driver.TakeResult();
  ASSERT_FALSE(mid_step.ok());
  EXPECT_NE(mid_step.status().message().find("not yet stepped"), std::string::npos);

  // None of the misuse corrupted anything: the run completes cleanly.
  ASSERT_TRUE(run->driver.Step().ok());
  ASSERT_TRUE(run->driver.done());
  EXPECT_TRUE(run->driver.TakeResult().ok());
}

TEST(SubmitVotesHostileTest, BackendFinishWithUnpolledBatchIsRejected) {
  const auto dataset = SmallRestaurant();
  WorkflowConfig config = BaseConfig();
  WorkflowDriver driver(config);
  ASSERT_TRUE(driver.Start(dataset).ok());
  auto backend = crowd::SimulatedCrowdBackend::Create(config.crowd, config.seed,
                                                      dataset.truth.entity_of)
                     .ValueOrDie();
  ASSERT_TRUE(backend->Post(driver.PendingHits()).ok());
  // Posted but never polled: Finish must refuse ("partial batch then
  // Finish" at the backend boundary).
  auto finish = backend->Finish();
  ASSERT_FALSE(finish.ok());
  EXPECT_NE(finish.status().message().find("unpolled"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Hostile asynchrony at the driver seam: out-of-order partial deliveries
// through AsyncCrowdBackend, re-delivered HITs, and late votes naming
// earlier rounds. Every vote is filed exactly once or rejected by name.
// ---------------------------------------------------------------------------

TEST(AsyncCrowdTest, OutOfOrderPartialDeliveriesAggregateIdentically) {
  const auto dataset = SmallRestaurant();
  WorkflowConfig config = BaseConfig();
  config.hit_type = HitType::kPairBased;  // each pair lives in exactly one HIT
  config.seed = 42;  // a seed whose completion order provably inverts HIT order

  // Synchronous reference run.
  auto sync = HybridWorkflow(config).Run(dataset);
  ASSERT_TRUE(sync.ok()) << sync.status().ToString();

  // The same crowd behind the async adapter, driven by hand so the delivery
  // pattern is observable.
  crowd::SimulatedCrowdOptions options;
  auto inner = crowd::SimulatedCrowdBackend::Create(config.crowd, config.seed,
                                                    dataset.truth.entity_of, options)
                   .ValueOrDie();
  crowd::AsyncCrowdOptions async_options;
  async_options.hits_per_poll = 2;
  crowd::AsyncCrowdBackend async(inner.get(), config.crowd, config.seed, async_options);

  WorkflowDriver driver(config);
  ASSERT_TRUE(driver.Start(dataset).ok());
  int partial_batches = 0;
  bool out_of_order = false;
  while (!driver.done()) {
    const crowd::Ticket ticket = async.Post(driver.PendingHits()).ValueOrDie();
    bool complete = false;
    uint32_t last_hit = 0;
    bool first_delivery = true;
    while (!complete) {
      crowd::VoteBatch votes = async.Poll(ticket).ValueOrDie();
      complete = votes.complete;
      if (!complete) ++partial_batches;
      for (const crowd::HitVotes& hv : votes.hit_votes) {
        if (!first_delivery && hv.hit < last_hit) out_of_order = true;
        last_hit = hv.hit;
        first_delivery = false;
      }
      ASSERT_TRUE(driver.SubmitVotes(std::move(votes)).ok());
    }
    ASSERT_TRUE(driver.Step().ok());
  }
  ASSERT_TRUE(driver.SubmitCrowdStats(async.Finish().ValueOrDie()).ok());
  auto result = driver.TakeResult();
  ASSERT_TRUE(result.ok());

  // The transport was genuinely hostile...
  EXPECT_GT(partial_batches, 0);
  EXPECT_TRUE(out_of_order);
  // ...and still: with pair-based HITs a pair's votes are atomic to one
  // HIT, so even per-pair vote order survives — the ranking is bitwise the
  // synchronous one.
  ASSERT_EQ(result->ranked.size(), sync->ranked.size());
  for (size_t i = 0; i < sync->ranked.size(); ++i) {
    EXPECT_EQ(result->ranked[i].a, sync->ranked[i].a);
    EXPECT_EQ(result->ranked[i].b, sync->ranked[i].b);
    EXPECT_EQ(result->ranked[i].score, sync->ranked[i].score);
  }
}

TEST(AsyncCrowdTest, RunWithAsyncCrowdConfigMatchesSynchronousRun) {
  const auto dataset = SmallRestaurant();
  WorkflowConfig config = BaseConfig();
  config.hit_type = HitType::kPairBased;
  auto sync = HybridWorkflow(config).Run(dataset);
  ASSERT_TRUE(sync.ok());
  config.async_crowd = true;  // the one-flag form of the loop above
  auto async = HybridWorkflow(config).Run(dataset);
  ASSERT_TRUE(async.ok()) << async.status().ToString();
  ASSERT_EQ(async->ranked.size(), sync->ranked.size());
  for (size_t i = 0; i < sync->ranked.size(); ++i) {
    EXPECT_EQ(async->ranked[i].score, sync->ranked[i].score);
  }
}

TEST(AsyncCrowdTest, RedeliveredHitIsRejectedByNameAndLatches) {
  const auto dataset = SmallRestaurant();
  WorkflowConfig config = BaseConfig();
  config.hit_type = HitType::kPairBased;
  auto run = StartOpenRun(config, dataset);
  ASSERT_GE(run->honest_votes.hit_votes.size(), 2u);

  // First partial delivery: HIT 0 alone, round stays open.
  crowd::VoteBatch first;
  first.hit_votes.push_back(run->honest_votes.hit_votes[0]);
  first.complete = false;
  ASSERT_TRUE(run->driver.SubmitVotes(std::move(first)).ok());

  // Second delivery re-delivers HIT 0: filing it again would double-count.
  crowd::VoteBatch second;
  second.hit_votes.push_back(run->honest_votes.hit_votes[0]);
  const Status redelivered = run->driver.SubmitVotes(std::move(second));
  EXPECT_TRUE(redelivered.IsInvalidArgument());
  EXPECT_NE(redelivered.message().find("delivered twice in this round"), std::string::npos)
      << redelivered;
  // Corrupt transport: the failure latches.
  EXPECT_TRUE(run->driver.Step().IsInvalidArgument());
  EXPECT_FALSE(run->driver.TakeResult().ok());
}

TEST(AsyncCrowdTest, DuplicateHitWithinOneBatchIsRejected) {
  const auto dataset = SmallRestaurant();
  WorkflowConfig config = BaseConfig();
  config.hit_type = HitType::kPairBased;
  auto run = StartOpenRun(config, dataset);

  crowd::VoteBatch hostile = run->honest_votes;
  hostile.hit_votes.push_back(hostile.hit_votes.front());  // same HIT twice
  const Status rejected = run->driver.SubmitVotes(std::move(hostile));
  EXPECT_TRUE(rejected.IsInvalidArgument());
  EXPECT_NE(rejected.message().find("delivered twice in this round"), std::string::npos);
}

TEST(AsyncCrowdTest, PartialDeliveriesCompleteTheRoundExactlyOnce) {
  const auto dataset = SmallRestaurant();
  WorkflowConfig config = BaseConfig();
  config.hit_type = HitType::kPairBased;
  auto run = StartOpenRun(config, dataset);
  const size_t n = run->honest_votes.hit_votes.size();
  ASSERT_GE(n, 2u);

  // Deliver the round in two pieces, back half first (out of order).
  crowd::VoteBatch back;
  back.hit_votes.assign(run->honest_votes.hit_votes.begin() + static_cast<long>(n / 2),
                        run->honest_votes.hit_votes.end());
  back.complete = false;
  ASSERT_TRUE(run->driver.SubmitVotes(std::move(back)).ok());
  // Stepping mid-round is refused: the round is not complete yet.
  EXPECT_TRUE(run->driver.Step().IsInvalidArgument());

  crowd::VoteBatch front;
  front.hit_votes.assign(run->honest_votes.hit_votes.begin(),
                         run->honest_votes.hit_votes.begin() + static_cast<long>(n / 2));
  front.assignments = run->honest_votes.assignments;
  ASSERT_TRUE(run->driver.SubmitVotes(std::move(front)).ok());  // complete = true
  ASSERT_TRUE(run->driver.Step().ok());
  ASSERT_TRUE(run->driver.done());

  // The split changed per-pair filing order by HIT, not the vote multiset;
  // filing each HIT exactly once means the totals match a clean run.
  auto result = run->driver.TakeResult();
  ASSERT_TRUE(result.ok());
  auto clean = HybridWorkflow(config).Run(dataset);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(result->ranked.size(), clean->ranked.size());
}

TEST(AsyncCrowdTest, LateVotesForARetiredRoundAreRejectedByName) {
  const auto dataset = SmallRestaurant();
  WorkflowConfig config = BaseConfig();
  config.hit_type = HitType::kPairBased;
  config.execution_mode = ExecutionMode::kStreaming;
  config.crowd_partition_pairs = 16;  // several rounds over ~60 pairs
  WorkflowDriver driver(config);
  ASSERT_TRUE(driver.Start(dataset).ok());
  crowd::SimulatedCrowdOptions options;
  auto backend = crowd::SimulatedCrowdBackend::Create(config.crowd, config.seed,
                                                      dataset.truth.entity_of, options)
                     .ValueOrDie();

  // Answer round 1, keep its votes, move to round 2.
  const auto ticket = backend->Post(driver.PendingHits()).ValueOrDie();
  crowd::VoteBatch round1 = backend->Poll(ticket).ValueOrDie();
  ASSERT_TRUE(driver.SubmitVotes(round1).ok());
  ASSERT_TRUE(driver.Step().ok());
  ASSERT_FALSE(driver.done()) << "need a second round for this test";

  // A late (re)delivery of round 1's votes names HITs before the pending
  // batch: rejected by HIT index, never silently double-counted.
  const Status late = driver.SubmitVotes(round1);
  EXPECT_TRUE(late.IsInvalidArgument());
  EXPECT_NE(late.message().find("outside the pending batch"), std::string::npos) << late;
}

TEST(AsyncCrowdTest, AsyncBackendFinishWithUndeliveredVotesIsRejected) {
  const auto dataset = SmallRestaurant();
  WorkflowConfig config = BaseConfig();
  config.hit_type = HitType::kPairBased;
  WorkflowDriver driver(config);
  ASSERT_TRUE(driver.Start(dataset).ok());
  crowd::SimulatedCrowdOptions options;
  auto inner = crowd::SimulatedCrowdBackend::Create(config.crowd, config.seed,
                                                    dataset.truth.entity_of, options)
                   .ValueOrDie();
  crowd::AsyncCrowdBackend async(inner.get(), config.crowd, config.seed);

  const auto ticket = async.Post(driver.PendingHits()).ValueOrDie();
  crowd::VoteBatch piece = async.Poll(ticket).ValueOrDie();
  ASSERT_FALSE(piece.complete) << "first poll should be partial here";

  auto finish = async.Finish();
  ASSERT_FALSE(finish.ok());
  EXPECT_NE(finish.status().message().find("undelivered"), std::string::npos);

  // Polling the round to completion unblocks Finish.
  while (!async.Poll(ticket).ValueOrDie().complete) {
  }
  EXPECT_TRUE(async.Finish().ok());
}

// ---------------------------------------------------------------------------
// Bounded cluster rounds: a range's context is the pairs its HITs ask, so a
// repair round (which re-posts the context's under-replicated pairs) never
// asks a pair the range's HITs did not.
// ---------------------------------------------------------------------------

bool InsideSomeHit(const std::vector<hitgen::ClusterBasedHit>& hits, uint32_t a, uint32_t b) {
  return std::any_of(hits.begin(), hits.end(), [&](const hitgen::ClusterBasedHit& hit) {
    const auto& r = hit.records;
    return std::find(r.begin(), r.end(), a) != r.end() &&
           std::find(r.begin(), r.end(), b) != r.end();
  });
}

TEST(ClusterRangeTest, BoundedRoundsAndRepairsAskOnlyPairsTheirHitsCover) {
  // The adversarial sweep's fixture and hostile crowd (adversarial_sweep_test),
  // filter on, in 256-pair crowd partitions: several HITs per range, and
  // enough bans for repair rounds.
  data::RestaurantConfig data_config;
  data_config.num_records = 400;
  data_config.num_duplicate_pairs = 80;
  data_config.num_chains = 8;
  data_config.seed = 13;
  const data::Dataset dataset = data::GenerateRestaurant(data_config).ValueOrDie();
  WorkflowConfig config;
  config.likelihood_threshold = 0.35;
  config.hit_type = HitType::kClusterBased;
  config.execution_mode = ExecutionMode::kStreaming;
  config.crowd_partition_pairs = 256;
  config.filter_workers = true;
  config.crowd.reliable_fraction = 0.46;
  config.crowd.noisy_fraction = 0.18;
  config.crowd.colluder_fraction = 0.13;
  config.crowd.sleeper_fraction = 0.08;

  crowd::SimulatedCrowdOptions options;
  auto backend = crowd::SimulatedCrowdBackend::Create(config.crowd, config.seed,
                                                      dataset.truth.entity_of, options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  WorkflowDriver driver(config);
  ASSERT_TRUE(driver.Start(dataset).ok());
  std::vector<hitgen::ClusterBasedHit> cluster_round;  // the latest cluster round's HITs
  size_t cluster_rounds = 0;
  size_t repair_rounds = 0;
  size_t uncovered_context_pairs = 0;
  size_t repair_pairs_outside_round = 0;
  while (!driver.done()) {
    const crowd::HitBatch& batch = driver.PendingHits();
    if (batch.cluster_hits != nullptr) {
      ++cluster_rounds;
      cluster_round = *batch.cluster_hits;
      for (const auto& p : *batch.pairs) {
        if (!InsideSomeHit(cluster_round, p.a, p.b)) ++uncovered_context_pairs;
      }
    } else {
      ++repair_rounds;
      for (const auto& hit : *batch.pair_hits) {
        for (const graph::Edge& e : hit.pairs) {
          if (!InsideSomeHit(cluster_round, e.a, e.b)) ++repair_pairs_outside_round;
        }
      }
    }
    auto ticket = (*backend)->Post(batch);
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    auto votes = (*backend)->Poll(*ticket);
    ASSERT_TRUE(votes.ok()) << votes.status().ToString();
    ASSERT_TRUE(driver.SubmitVotes(std::move(*votes)).ok());
    ASSERT_TRUE(driver.Step().ok());
  }
  auto result = driver.TakeResult();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(cluster_rounds, 1u) << "the fixture must split into several HIT ranges";
  EXPECT_GT(repair_rounds, 0u) << "the filter must ban workers and starve pairs";
  EXPECT_FALSE(result->filtered_workers.empty());
  EXPECT_EQ(uncovered_context_pairs, 0u);
  EXPECT_EQ(repair_pairs_outside_round, 0u);
}

// ---------------------------------------------------------------------------
// Adaptive selection at the driver seam: a vote naming a closure-resolved
// pair is a clean protocol error (no latch — the corrected batch goes
// through), and a worker ban can un-infer a pair, which the driver then
// conservatively re-asks (driver.h's retraction contract).
// ---------------------------------------------------------------------------

// Five records engineered so the machine pass admits exactly four pairs:
// (0,1) and (3,4) at Jaccard 1.0, (0,2) and (1,2) at 2/3. Once (0,1) and
// (0,2) are answered "match", (1,2) is decided by transitive closure.
data::Dataset TinyChain() {
  data::Dataset dataset;
  dataset.name = "tiny-chain";
  dataset.table.attribute_names = {"name"};
  dataset.table.records = {{"alpha beta"},
                           {"alpha beta"},
                           {"alpha beta gamma"},
                           {"delta epsilon"},
                           {"delta epsilon"}};
  dataset.truth.entity_of = {0, 0, 0, 1, 1};
  return dataset;
}

WorkflowConfig TinyAdaptiveConfig() {
  WorkflowConfig config;
  config.likelihood_threshold = 0.35;
  config.hit_type = HitType::kPairBased;
  config.pairs_per_hit = 1;
  config.aggregation = AggregationMethod::kMajorityVote;
  config.question_policy = QuestionPolicyKind::kInferenceOrdered;
  config.selection_batch_pairs = 1;  // one question per sub-round
  config.crowd.assignments_per_hit = 1;
  config.seed = 5;
  return config;
}

// Answers every pair in the pending batch truthfully as one worker.
crowd::VoteBatch OracleAnswer(const crowd::HitBatch& batch,
                              const std::vector<uint32_t>& entity_of, uint32_t worker_id) {
  crowd::VoteBatch votes;
  for (size_t i = 0; i < batch.pair_hits->size(); ++i) {
    crowd::HitVotes hv;
    hv.hit = batch.first_hit + static_cast<uint32_t>(i);
    for (const graph::Edge& e : (*batch.pair_hits)[i].pairs) {
      crowd::PairVote pv;
      pv.a = e.a;
      pv.b = e.b;
      pv.vote.worker_id = worker_id;
      pv.vote.says_match = entity_of[e.a] == entity_of[e.b];
      hv.votes.push_back(pv);
    }
    crowd::AssignmentRecord rec;
    rec.hit = hv.hit;
    rec.duration_seconds = 3.0;
    rec.comparisons = hv.votes.size();
    votes.assignments.push_back(rec);
    votes.hit_votes.push_back(std::move(hv));
  }
  return votes;
}

// The single pair the one-question sub-round posted.
graph::Edge PendingPair(const WorkflowDriver& driver) {
  const crowd::HitBatch& batch = driver.PendingHits();
  EXPECT_EQ(batch.num_hits(), 1u);
  EXPECT_EQ((*batch.pair_hits)[0].pairs.size(), 1u);
  return (*batch.pair_hits)[0].pairs[0];
}

TEST(AdaptiveDriverTest, VoteOnClosureResolvedPairIsACleanNonLatchingError) {
  const data::Dataset dataset = TinyChain();
  WorkflowDriver driver(TinyAdaptiveConfig());
  ASSERT_TRUE(driver.Start(dataset).ok());

  // Sub-round 1: the highest-gain pair is (0,1). Sub-round 2: with cluster
  // {0,1} formed, (0,2)'s gain doubles past (3,4)'s. Both answered "match"
  // ⇒ the closure resolves (1,2) by transitivity.
  graph::Edge asked = PendingPair(driver);
  EXPECT_EQ(asked.a, 0u);
  EXPECT_EQ(asked.b, 1u);
  ASSERT_TRUE(
      driver.SubmitVotes(OracleAnswer(driver.PendingHits(), dataset.truth.entity_of, 1)).ok());
  ASSERT_TRUE(driver.Step().ok());

  asked = PendingPair(driver);
  EXPECT_EQ(asked.a, 0u);
  EXPECT_EQ(asked.b, 2u);
  ASSERT_TRUE(
      driver.SubmitVotes(OracleAnswer(driver.PendingHits(), dataset.truth.entity_of, 1)).ok());
  ASSERT_TRUE(driver.Step().ok());

  // Sub-round 3 asks the one pair left un-inferred: (3,4).
  ASSERT_FALSE(driver.done());
  asked = PendingPair(driver);
  EXPECT_EQ(asked.a, 3u);
  EXPECT_EQ(asked.b, 4u);

  // A batch that also answers the inferred pair (1,2) is refused by name —
  // a clean protocol error, because the pair was deliberately never posted.
  crowd::VoteBatch hostile = OracleAnswer(driver.PendingHits(), dataset.truth.entity_of, 1);
  crowd::PairVote on_inferred;
  on_inferred.a = 1;
  on_inferred.b = 2;
  on_inferred.vote.worker_id = 1;
  on_inferred.vote.says_match = true;
  hostile.hit_votes.front().votes.push_back(on_inferred);
  const Status rejected = driver.SubmitVotes(std::move(hostile));
  EXPECT_TRUE(rejected.IsInvalidArgument());
  EXPECT_NE(rejected.message().find("already resolved by the answer closure"),
            std::string::npos)
      << rejected;

  // No latch: nothing was filed, and the corrected batch completes the run
  // with the inferred verdict in the output.
  ASSERT_TRUE(
      driver.SubmitVotes(OracleAnswer(driver.PendingHits(), dataset.truth.entity_of, 1)).ok());
  ASSERT_TRUE(driver.Step().ok());
  ASSERT_TRUE(driver.done());
  auto result = driver.TakeResult();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_candidate_pairs, 4u);
  EXPECT_EQ(result->crowd_pairs_asked, 3u);
  EXPECT_EQ(result->pairs_inferred, 1u);
  for (const auto& rp : result->ranked) {
    EXPECT_GT(rp.score, 0.5) << "(" << rp.a << "," << rp.b << ")";  // all truly match
  }
}

// Bans a scripted worker on the Nth round review, nobody else ever.
struct ScriptedBanFilter : crowd::WorkerFilter {
  uint32_t target = 0;
  int reviews_until_ban = 0;
  std::vector<uint32_t> Review(const std::vector<crowd::WorkerStats>&) override {
    if (--reviews_until_ban == 0) return {target};
    return {};
  }
};

TEST(AdaptiveDriverTest, BanCanUnInferAPairWhichIsThenReAsked) {
  // Rounds 1-2 establish (0,1) and (0,2) as matches — round 2 answered by
  // worker 7 alone — so (1,2) is inferred. The round-3 review bans worker 7:
  // (0,2)'s only vote dies, the closure rebuild can no longer derive (1,2),
  // and the driver must retract the inference and re-ask (1,2) as a real
  // question rather than silently keeping a verdict it can no longer prove.
  const data::Dataset dataset = TinyChain();
  WorkflowDriver driver(TinyAdaptiveConfig());
  ScriptedBanFilter filter;
  filter.target = 7;
  filter.reviews_until_ban = 3;
  driver.SetWorkerFilter(&filter);
  ASSERT_TRUE(driver.Start(dataset).ok());

  graph::Edge asked = PendingPair(driver);  // (0,1), worker 1
  EXPECT_EQ(asked.a, 0u);
  EXPECT_EQ(asked.b, 1u);
  ASSERT_TRUE(
      driver.SubmitVotes(OracleAnswer(driver.PendingHits(), dataset.truth.entity_of, 1)).ok());
  ASSERT_TRUE(driver.Step().ok());

  asked = PendingPair(driver);  // (0,2), worker 7 — the vote the ban kills
  EXPECT_EQ(asked.a, 0u);
  EXPECT_EQ(asked.b, 2u);
  ASSERT_TRUE(
      driver.SubmitVotes(OracleAnswer(driver.PendingHits(), dataset.truth.entity_of, 7)).ok());
  ASSERT_TRUE(driver.Step().ok());

  asked = PendingPair(driver);  // (3,4); this round's review bans worker 7
  EXPECT_EQ(asked.a, 3u);
  EXPECT_EQ(asked.b, 4u);
  ASSERT_TRUE(
      driver.SubmitVotes(OracleAnswer(driver.PendingHits(), dataset.truth.entity_of, 1)).ok());
  ASSERT_TRUE(driver.Step().ok());

  // The retraction: (1,2) — inferred until the ban — is back as a question,
  // and answering it is accepted (it is no longer closure-resolved).
  ASSERT_FALSE(driver.done()) << "retraction must re-ask the un-inferred pair";
  asked = PendingPair(driver);
  EXPECT_EQ(asked.a, 1u);
  EXPECT_EQ(asked.b, 2u);
  ASSERT_TRUE(
      driver.SubmitVotes(OracleAnswer(driver.PendingHits(), dataset.truth.entity_of, 1)).ok());
  ASSERT_TRUE(driver.Step().ok());
  ASSERT_TRUE(driver.done());

  auto result = driver.TakeResult();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->crowd_pairs_asked, 4u);  // the retraction cost one re-ask
  EXPECT_EQ(result->pairs_inferred, 0u);     // nothing inferred survived
  ASSERT_EQ(result->filtered_workers.size(), 1u);
  EXPECT_EQ(result->filtered_workers[0], 7u);
  // One round reported the (later retracted) inference as its saving.
  uint64_t per_round = 0;
  for (const auto& round : result->crowd_rounds) per_round += round.pairs_inferred;
  EXPECT_EQ(per_round, 1u);
  // (1,2) was decided by its re-asked vote, not the dead inference.
  for (const auto& rp : result->ranked) {
    if (rp.a == 1 && rp.b == 2) {
      EXPECT_GT(rp.score, 0.5);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace crowder

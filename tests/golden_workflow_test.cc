// Deterministic end-to-end golden test: the full HybridWorkflow on a small
// generated Restaurant dataset with fixed seeds must keep producing exactly
// the recorded outputs. This is the cheap regression gate for the whole
// pipeline — machine pass, pair-graph clustering, cluster-HIT generation,
// crowd simulation, and Dawid-Skene aggregation; any semantic drift in any
// stage moves at least one golden value.
//
// If a deliberate algorithm change shifts these numbers, re-record them by
// running the binary and copying the values its failure messages print —
// and say why in the commit.
//
// Re-record history:
//  * BestF1 0.93617... → 0.91666...: the crowd platform moved to per-HIT
//    seed derivation (crowd/backend.h) so HIT batches can simulate in
//    parallel and stream incrementally; the worker-pick and answer draws
//    legitimately shifted. Candidate pairs, HIT counts, assignment counts,
//    and cost are unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "core/driver.h"
#include "core/partition.h"
#include "core/workflow.h"
#include "crowd/backend.h"
#include "crowd/vote_log.h"
#include "data/generators.h"
#include "eval/metrics.h"
#include "graph/connected_components.h"
#include "graph/pair_graph.h"

namespace crowder {
namespace core {
namespace {

data::Dataset SmallRestaurant() {
  data::RestaurantConfig config;
  config.num_records = 160;
  config.num_duplicate_pairs = 24;
  config.num_chains = 8;
  config.seed = 20260730;
  return data::GenerateRestaurant(config).ValueOrDie();
}

WorkflowConfig GoldenConfig() {
  WorkflowConfig config;
  config.likelihood_threshold = 0.3;
  config.hit_type = HitType::kClusterBased;
  config.cluster_size = 5;
  config.aggregation = AggregationMethod::kDawidSkene;
  config.seed = 1234;
  return config;
}

TEST(GoldenWorkflowTest, SmallRestaurantPipelineIsStable) {
  const data::Dataset dataset = SmallRestaurant();
  const HybridWorkflow workflow(GoldenConfig());
  auto result = workflow.Run(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // ---- Golden values (recorded from the seed build; see header note). ----
  EXPECT_EQ(dataset.table.num_records(), 160u);
  EXPECT_EQ(result->total_matches, 24u);
  EXPECT_EQ(result->num_candidate_pairs, 234u);
  EXPECT_NEAR(result->machine_recall, 23.0 / 24.0, 1e-12);

  // Cluster structure of the candidate pair graph (the result carries only
  // |P|; the machine pass alone returns P).
  const auto pairs = HybridWorkflow::MachinePass(dataset, similarity::SetMeasure::kJaccard,
                                                 GoldenConfig().likelihood_threshold)
                         .ValueOrDie();
  EXPECT_EQ(pairs.size(), 234u);
  std::vector<graph::Edge> edges;
  for (const auto& p : pairs) edges.push_back({p.a, p.b});
  auto pair_graph =
      graph::PairGraph::Create(dataset.table.num_records(), edges).ValueOrDie();
  EXPECT_EQ(graph::ConnectedComponents(pair_graph).size(), 18u);

  // Crowd execution.
  EXPECT_EQ(result->crowd_stats.num_hits, 46u);
  EXPECT_EQ(result->crowd_stats.num_assignments, 138u);

  // Quality of the final ranked output.
  EXPECT_EQ(result->ranked.size(), result->num_candidate_pairs);
  EXPECT_NEAR(eval::BestF1(result->pr_curve), 0.91666666666666663, 1e-9);
}

TEST(GoldenWorkflowTest, MultiThreadedRunLeavesGoldenValuesBitwiseUnchanged) {
  // Determinism across thread counts is a contract, not an accident: with
  // num_threads > 1 the machine pass runs the parallel join, and every
  // golden value — and the full ranked list, bitwise — must match the
  // serial run. A drift here means scheduling leaked into the output.
  const data::Dataset dataset = SmallRestaurant();
  const HybridWorkflow serial_workflow(GoldenConfig());
  auto serial = serial_workflow.Run(dataset);
  ASSERT_TRUE(serial.ok());
  const auto serial_pairs =
      HybridWorkflow::MachinePass(dataset, similarity::SetMeasure::kJaccard,
                                  GoldenConfig().likelihood_threshold)
          .ValueOrDie();

  for (uint32_t threads : {2u, 4u, 7u}) {
    WorkflowConfig config = GoldenConfig();
    config.num_threads = threads;
    const HybridWorkflow workflow(config);
    auto result = workflow.Run(dataset);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // The recorded goldens, verbatim.
    EXPECT_EQ(result->num_candidate_pairs, 234u) << "threads " << threads;
    EXPECT_NEAR(result->machine_recall, 23.0 / 24.0, 1e-12) << "threads " << threads;
    EXPECT_EQ(result->crowd_stats.num_hits, 46u) << "threads " << threads;
    EXPECT_EQ(result->crowd_stats.num_assignments, 138u) << "threads " << threads;
    EXPECT_NEAR(eval::BestF1(result->pr_curve), 0.91666666666666663, 1e-9)
        << "threads " << threads;

    // And the stronger form: bitwise equality with the serial run — the
    // machine pass's pairs and the ranked list.
    const auto pairs =
        HybridWorkflow::MachinePass(dataset, similarity::SetMeasure::kJaccard,
                                    config.likelihood_threshold,
                                    CandidateStrategy::kAllPairsJoin, threads)
            .ValueOrDie();
    ASSERT_EQ(pairs.size(), serial_pairs.size());
    for (size_t i = 0; i < serial_pairs.size(); ++i) {
      EXPECT_EQ(pairs[i].a, serial_pairs[i].a);
      EXPECT_EQ(pairs[i].b, serial_pairs[i].b);
      EXPECT_EQ(pairs[i].score, serial_pairs[i].score);
    }
    ASSERT_EQ(result->ranked.size(), serial->ranked.size());
    for (size_t i = 0; i < serial->ranked.size(); ++i) {
      EXPECT_EQ(result->ranked[i].a, serial->ranked[i].a);
      EXPECT_EQ(result->ranked[i].b, serial->ranked[i].b);
      EXPECT_EQ(result->ranked[i].score, serial->ranked[i].score);
    }
    EXPECT_EQ(result->crowd_stats.cost_dollars, serial->crowd_stats.cost_dollars);
  }
}

// Shared matrix body: a streaming run under (threads, budget,
// partition_pairs) must reproduce the unbounded `materialized` run bitwise —
// ranked list, crowd statistics, cost, and completion time.
//
// How many crowd partitions a bounded run over `num_pairs` candidate pairs
// and `num_cluster_hits` cluster HITs counts: one per context — a partition
// of whole pair HITs, or a range of cluster HITs whose pair contexts fit the
// partition capacity (a HIT of k records asks at most k(k-1)/2 pairs).
uint64_t ExpectedCrowdPartitions(const WorkflowConfig& config, uint64_t num_pairs,
                                 uint64_t num_cluster_hits) {
  const uint64_t capacity =
      ResolvePartitionCapacity(config.crowd_partition_pairs, config.memory_budget_bytes);
  uint64_t units = num_pairs;
  uint64_t per_context = AlignedPartitionCapacity(capacity, config.pairs_per_hit);
  if (config.hit_type == HitType::kClusterBased) {
    const uint64_t k = config.cluster_size;
    units = num_cluster_hits;
    per_context = std::max<uint64_t>(1, capacity / (k * (k - 1) / 2));
  }
  return units / per_context + (units % per_context != 0 ? 1 : 0);
}

void ExpectStreamingMatchesMaterialized(const data::Dataset& dataset,
                                        const WorkflowConfig& base,
                                        const WorkflowResult& materialized, uint32_t threads,
                                        uint64_t budget, uint64_t partition_pairs) {
  WorkflowConfig config = base;
  config.execution_mode = ExecutionMode::kStreaming;
  config.num_threads = threads;
  config.memory_budget_bytes = budget;
  config.stream_block_records = 64;
  config.crowd_partition_pairs = partition_pairs;
  const HybridWorkflow workflow(config);
  auto result = workflow.Run(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string which = "threads " + std::to_string(threads) + " budget " +
                            std::to_string(budget) + " partition " +
                            std::to_string(partition_pairs);

  EXPECT_EQ(result->num_candidate_pairs, materialized.num_candidate_pairs) << which;
  EXPECT_EQ(result->machine_recall, materialized.machine_recall) << which;

  // Crowd statistics, bitwise.
  EXPECT_EQ(result->crowd_stats.num_hits, materialized.crowd_stats.num_hits) << which;
  EXPECT_EQ(result->crowd_stats.num_assignments, materialized.crowd_stats.num_assignments)
      << which;
  EXPECT_EQ(result->crowd_stats.cost_dollars, materialized.crowd_stats.cost_dollars) << which;
  EXPECT_EQ(result->crowd_stats.total_seconds, materialized.crowd_stats.total_seconds) << which;

  // The ranked output, bitwise.
  ASSERT_EQ(result->ranked.size(), materialized.ranked.size()) << which;
  for (size_t i = 0; i < materialized.ranked.size(); ++i) {
    EXPECT_EQ(result->ranked[i].a, materialized.ranked[i].a) << which;
    EXPECT_EQ(result->ranked[i].b, materialized.ranked[i].b) << which;
    EXPECT_EQ(result->ranked[i].score, materialized.ranked[i].score) << which;
  }

  // The boundary really partitioned / spilled when asked to, and counted
  // each context once. Without a filter there are no repair HITs, so every
  // cluster HIT of the materialized run is one the generator made.
  EXPECT_GE(result->pipeline_stats.crowd_partitions, 1u) << which;
  if (partition_pairs > 0 && partition_pairs < materialized.num_candidate_pairs) {
    EXPECT_GT(result->pipeline_stats.crowd_partitions, 1u) << which;
  }
  EXPECT_EQ(result->pipeline_stats.crowd_partitions,
            ExpectedCrowdPartitions(config, materialized.num_candidate_pairs,
                                    materialized.crowd_stats.num_hits))
      << which;
  if (budget > 0) {
    EXPECT_GT(result->pipeline_stats.spilled_bytes, 0u) << which;
  } else {
    EXPECT_EQ(result->pipeline_stats.spilled_bytes, 0u) << which;
  }
}

TEST(GoldenWorkflowTest, MaterializedModeIgnoresTheBoundedMemoryKnobs) {
  // ExecutionMode selects no code: kMaterialized is the partitioned path
  // with memory_budget_bytes, stream_block_records and crowd_partition_pairs
  // treated as 0. Knobs that force spilling and ~4 crowd partitions under
  // kStreaming (see the matrix below) must leave this run unbounded — no
  // spill anywhere, one partition — and its ranked list the default run's.
  const data::Dataset dataset = SmallRestaurant();
  auto baseline = HybridWorkflow(GoldenConfig()).Run(dataset);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  WorkflowConfig config = GoldenConfig();
  config.execution_mode = ExecutionMode::kMaterialized;
  config.memory_budget_bytes = 1024;
  config.stream_block_records = 64;
  config.crowd_partition_pairs = 64;
  auto result = HybridWorkflow(config).Run(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->pipeline_stats.spilled_bytes, 0u);
  EXPECT_EQ(result->pipeline_stats.vote_spilled_bytes, 0u);
  EXPECT_EQ(result->pipeline_stats.boundary_spilled_bytes, 0u);
  EXPECT_EQ(result->pipeline_stats.crowd_partitions, 1u);
  EXPECT_EQ(result->crowd_rounds.size(), 1u);
  ASSERT_EQ(result->ranked.size(), baseline->ranked.size());
  for (size_t i = 0; i < baseline->ranked.size(); ++i) {
    EXPECT_EQ(result->ranked[i].a, baseline->ranked[i].a);
    EXPECT_EQ(result->ranked[i].b, baseline->ranked[i].b);
    EXPECT_EQ(result->ranked[i].score, baseline->ranked[i].score);
  }
}

TEST(GoldenWorkflowTest, StreamingModeIsBitwiseIdenticalToMaterialized) {
  // The acceptance bar of the partitioned crowd boundary: kStreaming must
  // produce the same bytes as kMaterialized at every golden config — across
  // thread counts, partition counts {1, ~4}, and whether or not the
  // candidate stream ever spilled to disk. The 1 KiB budget is well below
  // this run's pair volume (234 pairs * 16 B across 64-record blocks), so
  // the spill path genuinely executes; partition_pairs = 64 splits the 234
  // pairs across ~4 crowd partitions.
  const data::Dataset dataset = SmallRestaurant();
  const HybridWorkflow materialized_workflow(GoldenConfig());
  auto materialized = materialized_workflow.Run(dataset);
  ASSERT_TRUE(materialized.ok());
  EXPECT_EQ(materialized->num_candidate_pairs, 234u);

  for (uint32_t threads : {1u, 4u}) {
    ExpectStreamingMatchesMaterialized(dataset, GoldenConfig(), *materialized, threads,
                                       /*budget=*/0, /*partition_pairs=*/0);
    ExpectStreamingMatchesMaterialized(dataset, GoldenConfig(), *materialized, threads,
                                       /*budget=*/0, /*partition_pairs=*/64);
    ExpectStreamingMatchesMaterialized(dataset, GoldenConfig(), *materialized, threads,
                                       /*budget=*/1024, /*partition_pairs=*/64);
  }
}

TEST(GoldenWorkflowTest, PairHitPartitionedStreamingMatchesMaterialized) {
  // The same contract along the pair-based HIT path (partition boundaries
  // must fall on HIT boundaries to be invisible) and for both aggregators.
  const data::Dataset dataset = SmallRestaurant();
  for (const AggregationMethod aggregation :
       {AggregationMethod::kDawidSkene, AggregationMethod::kMajorityVote}) {
    WorkflowConfig base = GoldenConfig();
    base.hit_type = HitType::kPairBased;
    base.pairs_per_hit = 7;  // deliberately not a divisor of 64
    base.aggregation = aggregation;
    const HybridWorkflow materialized_workflow(base);
    auto materialized = materialized_workflow.Run(dataset);
    ASSERT_TRUE(materialized.ok());

    ExpectStreamingMatchesMaterialized(dataset, base, *materialized, /*threads=*/1,
                                       /*budget=*/0, /*partition_pairs=*/0);
    ExpectStreamingMatchesMaterialized(dataset, base, *materialized, /*threads=*/4,
                                       /*budget=*/0, /*partition_pairs=*/64);
    ExpectStreamingMatchesMaterialized(dataset, base, *materialized, /*threads=*/1,
                                       /*budget=*/1024, /*partition_pairs=*/64);
  }
}

// The backend dimension of the golden contract: a WorkflowDriver driven by
// hand against a SimulatedCrowdBackend — the public step/poll API, not
// HybridWorkflow::Run — must reproduce the pre-redesign goldens bitwise, in
// both execution modes. (Run() itself is a loop over the same driver and
// backend, so the classic golden tests above already pin that path; this
// one pins the exposed seam.)
TEST(GoldenWorkflowTest, ManualDriverLoopReproducesGoldensInBothModes) {
  const data::Dataset dataset = SmallRestaurant();
  for (const bool streaming : {false, true}) {
    WorkflowConfig config = GoldenConfig();
    if (streaming) {
      config.execution_mode = ExecutionMode::kStreaming;
      config.crowd_partition_pairs = 64;  // several rounds
    }
    crowd::SimulatedCrowdOptions options;
    auto backend = crowd::SimulatedCrowdBackend::Create(config.crowd, config.seed,
                                                        dataset.truth.entity_of, options)
                       .ValueOrDie();
    WorkflowDriver driver(config);
    ASSERT_TRUE(driver.Start(dataset).ok());
    size_t rounds = 0;
    while (!driver.done()) {
      ++rounds;
      auto ticket = backend->Post(driver.PendingHits());
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      auto votes = backend->Poll(*ticket);
      ASSERT_TRUE(votes.ok()) << votes.status().ToString();
      ASSERT_TRUE(driver.SubmitVotes(std::move(*votes)).ok());
      ASSERT_TRUE(driver.Step().ok());
    }
    ASSERT_TRUE(driver.SubmitCrowdStats(backend->Finish().ValueOrDie()).ok());
    auto result = driver.TakeResult();
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // The recorded goldens, verbatim (see the header note).
    const std::string which = streaming ? "streaming" : "materialized";
    EXPECT_EQ(result->num_candidate_pairs, 234u) << which;
    EXPECT_NEAR(result->machine_recall, 23.0 / 24.0, 1e-12) << which;
    EXPECT_EQ(result->crowd_stats.num_hits, 46u) << which;
    EXPECT_EQ(result->crowd_stats.num_assignments, 138u) << which;
    EXPECT_NEAR(eval::BestF1(result->pr_curve), 0.91666666666666663, 1e-9) << which;
    if (streaming) {
      EXPECT_GT(rounds, 1u);  // the step machine really surfaced partitions
    } else {
      EXPECT_EQ(rounds, 1u);
    }
  }
}

// Record → replay must reproduce the ranked list byte for byte — including
// across execution modes, because the vote log stores the HIT sequence, not
// the round partitioning.
TEST(GoldenWorkflowTest, RecordReplayRoundTripIsByteIdentical) {
  const data::Dataset dataset = SmallRestaurant();
  const std::string log_path = ::testing::TempDir() + "/golden_votes.jsonl";

  // Record a materialized run.
  auto writer = crowd::VoteLogWriter::Create(log_path).ValueOrDie();
  crowd::SimulatedCrowdOptions options;
  options.tee = writer.get();
  auto recorder = crowd::SimulatedCrowdBackend::Create(GoldenConfig().crowd,
                                                       GoldenConfig().seed,
                                                       dataset.truth.entity_of, options)
                      .ValueOrDie();
  const HybridWorkflow workflow(GoldenConfig());
  auto recorded = workflow.Run(dataset, recorder.get());
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_NEAR(eval::BestF1(recorded->pr_curve), 0.91666666666666663, 1e-9);

  // Replay it back — once materialized, once through the partitioned
  // streaming boundary with forced spilling.
  for (const bool streaming : {false, true}) {
    WorkflowConfig config = GoldenConfig();
    if (streaming) {
      config.execution_mode = ExecutionMode::kStreaming;
      config.memory_budget_bytes = 1024;
      config.crowd_partition_pairs = 64;
    }
    auto replayer = crowd::RecordedCrowdBackend::Open(log_path).ValueOrDie();
    auto replayed = HybridWorkflow(config).Run(dataset, replayer.get());
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    const std::string which = streaming ? "streaming replay" : "materialized replay";

    ASSERT_EQ(replayed->ranked.size(), recorded->ranked.size()) << which;
    for (size_t i = 0; i < recorded->ranked.size(); ++i) {
      EXPECT_EQ(replayed->ranked[i].a, recorded->ranked[i].a) << which;
      EXPECT_EQ(replayed->ranked[i].b, recorded->ranked[i].b) << which;
      EXPECT_EQ(replayed->ranked[i].score, recorded->ranked[i].score) << which;
    }
    EXPECT_EQ(replayed->crowd_stats.num_hits, recorded->crowd_stats.num_hits) << which;
    EXPECT_EQ(replayed->crowd_stats.num_assignments, recorded->crowd_stats.num_assignments)
        << which;
    EXPECT_EQ(replayed->crowd_stats.cost_dollars, recorded->crowd_stats.cost_dollars) << which;
    EXPECT_EQ(replayed->crowd_stats.total_seconds, recorded->crowd_stats.total_seconds)
        << which;
  }
}

TEST(GoldenWorkflowTest, FixedOrderLeavesGoldensBitwiseUnchanged) {
  // kFixedOrder is the default and must be a true no-op: requesting it
  // explicitly produces the recorded goldens and a bitwise-identical ranked
  // list, with the inference counters reporting "everything was asked".
  const data::Dataset dataset = SmallRestaurant();
  auto baseline = HybridWorkflow(GoldenConfig()).Run(dataset);
  ASSERT_TRUE(baseline.ok());

  WorkflowConfig config = GoldenConfig();
  config.question_policy = QuestionPolicyKind::kFixedOrder;
  auto result = HybridWorkflow(config).Run(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->pairs_inferred, 0u);
  EXPECT_EQ(result->crowd_pairs_asked, 234u);
  EXPECT_EQ(result->crowd_stats.num_hits, 46u);
  EXPECT_EQ(result->crowd_stats.num_assignments, 138u);
  EXPECT_NEAR(eval::BestF1(result->pr_curve), 0.91666666666666663, 1e-9);

  ASSERT_EQ(result->ranked.size(), baseline->ranked.size());
  for (size_t i = 0; i < baseline->ranked.size(); ++i) {
    EXPECT_EQ(result->ranked[i].a, baseline->ranked[i].a);
    EXPECT_EQ(result->ranked[i].b, baseline->ranked[i].b);
    EXPECT_EQ(result->ranked[i].score, baseline->ranked[i].score);
  }
}

TEST(GoldenWorkflowTest, AdaptiveSelectionGoldenIsStable) {
  // The adaptive-policy counterpart of the classic golden: the same config
  // through kInferenceOrdered must keep producing the recorded asked /
  // inferred split, crowd cost, ranked-list head, and F1. Any drift in the
  // closure, the gain ranking, or the sub-round machinery moves one of
  // these. Re-record deliberately, like the header says.
  const data::Dataset dataset = SmallRestaurant();
  WorkflowConfig config = GoldenConfig();
  config.question_policy = QuestionPolicyKind::kInferenceOrdered;
  auto result = HybridWorkflow(config).Run(dataset);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->num_candidate_pairs, 234u);
  EXPECT_EQ(result->crowd_pairs_asked, 230u);
  EXPECT_EQ(result->pairs_inferred, 4u);
  EXPECT_EQ(result->crowd_pairs_asked + result->pairs_inferred, 234u);
  // Cluster HITs stay posted unless *every* pair inside resolves, so on this
  // small run the HIT/assignment counts match the fixed-order goldens; the
  // savings show up in the asked/inferred split (and, at scale, in skipped
  // HITs — see selection_sweep_test for the strict-reduction pin).
  EXPECT_EQ(result->crowd_stats.num_hits, 46u);
  EXPECT_EQ(result->crowd_stats.num_assignments, 138u);
  EXPECT_NEAR(eval::BestF1(result->pr_curve), 0.93617021276595735, 1e-9);

  // Per-round savings roll up to the run total and are actually nonzero.
  uint64_t per_round = 0;
  for (const auto& round : result->crowd_rounds) per_round += round.pairs_inferred;
  EXPECT_EQ(per_round, result->pairs_inferred);
  EXPECT_GT(result->pairs_inferred, 0u);

  // The head of the ranked list, verbatim.
  const struct {
    uint32_t a;
    uint32_t b;
    double score;
  } head[] = {
      {126, 127, 0.99940958874326224},
      {128, 129, 0.99925238622317192},
      {154, 155, 0.99872017173952565},
      {148, 149, 0.99713160472793172},
      {124, 125, 0.99713159927338635},
  };
  ASSERT_GE(result->ranked.size(), std::size(head));
  for (size_t i = 0; i < std::size(head); ++i) {
    EXPECT_EQ(result->ranked[i].a, head[i].a) << "rank " << i;
    EXPECT_EQ(result->ranked[i].b, head[i].b) << "rank " << i;
    EXPECT_EQ(result->ranked[i].score, head[i].score) << "rank " << i;
  }
}

TEST(GoldenWorkflowTest, BoundedAdaptiveRunCountsEachContextOnce) {
  // Adaptive selection serves a context as many sub-rounds, and may retire
  // a context without posting anything; either way it is one crowd
  // partition. The cluster HIT count comes from the fixed-order run: ranges
  // are cut from the generated HIT list, not from the HITs posted.
  const data::Dataset dataset = SmallRestaurant();
  for (const HitType hit_type : {HitType::kPairBased, HitType::kClusterBased}) {
    WorkflowConfig config = GoldenConfig();
    config.hit_type = hit_type;
    config.pairs_per_hit = 7;
    auto fixed = HybridWorkflow(config).Run(dataset);
    ASSERT_TRUE(fixed.ok()) << fixed.status().ToString();

    config.question_policy = QuestionPolicyKind::kInferenceOrdered;
    config.execution_mode = ExecutionMode::kStreaming;
    config.memory_budget_bytes = 1024;
    config.crowd_partition_pairs = 64;
    auto result = HybridWorkflow(config).Run(dataset);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const uint64_t expected =
        ExpectedCrowdPartitions(config, fixed->num_candidate_pairs, fixed->crowd_stats.num_hits);
    EXPECT_GT(expected, 1u);
    EXPECT_EQ(result->pipeline_stats.crowd_partitions, expected)
        << (hit_type == HitType::kPairBased ? "pair HITs" : "cluster HITs");
  }
}

TEST(GoldenWorkflowTest, RerunIsBitwiseIdentical) {
  // Same config + same dataset must reproduce the identical ranked list —
  // the determinism contract the golden values above rely on.
  const data::Dataset dataset = SmallRestaurant();
  const HybridWorkflow workflow(GoldenConfig());
  auto first = workflow.Run(dataset);
  auto second = workflow.Run(dataset);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->ranked.size(), second->ranked.size());
  for (size_t i = 0; i < first->ranked.size(); ++i) {
    EXPECT_EQ(first->ranked[i].a, second->ranked[i].a);
    EXPECT_EQ(first->ranked[i].b, second->ranked[i].b);
    EXPECT_EQ(first->ranked[i].score, second->ranked[i].score);
  }
  EXPECT_EQ(first->crowd_stats.num_hits, second->crowd_stats.num_hits);
  EXPECT_EQ(first->crowd_stats.cost_dollars, second->crowd_stats.cost_dollars);
}

}  // namespace
}  // namespace core
}  // namespace crowder

// The workflow's machine-facing phases (CrowdER §2.2), as plain functions
// over the shared WorkflowState:
//
//   RunMachinePass  records → candidate pairs, in bounded blocks through
//                   WorkflowState::stream (spilling past the budget)
//   GenerateHits    candidate pairs → HITs: pair-based HITs are packed
//                   partition by partition by the driver's rounds;
//                   cluster-based HITs come from component buckets +
//                   per-bucket two-tiered decomposition over local-id
//                   subgraphs + one global pack (internal::
//                   BuildClusterBoundary)
//   Aggregate       votes → ranked matches + PR curve, shard by shard
//
// core::WorkflowDriver (driver.h) runs the first two in Start and Aggregate
// after the last crowd round, timing each into PipelineStats under the
// stage names "machine-pass", "hit-gen" and "aggregate". The crowd phase
// between them is a sequence of *rounds*: the driver prepares one HIT batch
// at a time, any crowd::CrowdBackend answers it, and the driver files the
// votes into the spill-backed VoteShardStore; its wall time is reported as
// the "crowd" stage.
//
// The phases communicate through WorkflowState, never through globals.
// Every run takes this one path; the memory budget and partition capacity
// only decide what spills and where partitions fall, which is invisible in
// the output (the merge lemma in core/pipeline.h and "Why partitioning is
// invisible" in docs/ARCHITECTURE.md).
#ifndef CROWDER_CORE_STAGES_H_
#define CROWDER_CORE_STAGES_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/partition.h"
#include "core/pipeline.h"
#include "core/workflow.h"
#include "hitgen/hit.h"

namespace crowder {
namespace core {

/// \brief Everything the phases (and the driver's crowd rounds) share.
/// Owned by WorkflowDriver for the duration of one workflow execution.
struct WorkflowState {
  WorkflowState(const WorkflowConfig& config_in, const data::Dataset& dataset_in)
      : config(&config_in), dataset(&dataset_in), stream(config_in.memory_budget_bytes) {}

  const WorkflowConfig* config;
  const data::Dataset* dataset;

  /// The candidate pairs. Stays alive through the whole run: the crowd
  /// boundary and the final ranked pass re-scan it instead of holding the
  /// pair list.
  PairStream stream;

  /// Cluster-based HITs, handed from GenerateHits to the crowd rounds; they
  /// are bounded by the two-tiered decomposition, not by |P|, and are kept
  /// whole. Pair-based HITs are packed partition by partition by the
  /// driver's rounds instead.
  std::vector<hitgen::ClusterBasedHit> cluster_hits;

  // ---- Partitioned crowd boundary (core/partition.h). ----

  /// Pairs per crowd partition, resolved from the config by GenerateHits.
  uint64_t partition_capacity = 0;
  /// Component-aligned buckets (cluster-based HITs only).
  std::unique_ptr<ComponentBucketPlan> buckets;
  /// Per-bucket pair storage, global-index tagged (cluster-based only).
  std::unique_ptr<ShardedSpillStore<IndexedPair>> bucket_pairs;
  /// The disk-backed vote table, filled by the driver's crowd rounds,
  /// drained by Aggregate.
  std::unique_ptr<VoteShardStore> votes;

  /// Workers banned by the driver's admission filter (crowd/worker_filter.h),
  /// copied in at Finalize. Aggregate excludes their votes when it
  /// derives decisions, while the unfiltered vote store above keeps the
  /// audit truth.
  std::unordered_set<uint32_t> banned_workers;

  /// Verdicts the driver's answer closure inferred instead of crowdsourcing
  /// (QuestionPolicyKind::kInferenceOrdered; copied in at Finalize), keyed
  /// by global pair index — ordered, so the aggregate can walk it in
  /// lockstep with the sorted stream. Aggregate overrides these pairs'
  /// match probabilities with 1.0 / 0.0 (they have no votes; without the
  /// override they would rank as never-judged). Empty under kFixedOrder,
  /// leaving the aggregate bitwise untouched.
  std::map<uint64_t, bool> inferred_verdicts;

  /// The result under construction (num_candidate_pairs, machine_recall,
  /// crowd_stats, ranked, pr_curve, ... filled in phase by phase).
  WorkflowResult result;
};

/// \brief Machine pass + prune: the prefix-filter join (or the sharded
/// runtime, num_shards >= 2) emits sorted blocks into state->stream, where
/// the pairs stay — every downstream consumer re-scans the (possibly
/// spilled) stream in sorted order. Also computes machine recall.
Status RunMachinePass(WorkflowState* state);

/// \brief HIT generation. Resolves the crowd partition capacity. Pair-based
/// HITs are left to the driver's rounds (packed per partition as the
/// partitions are drawn from the stream); cluster-based HITs run
/// internal::BuildClusterBoundary — the two-tiered generator's HIT list,
/// without ever holding the whole pair graph.
Status GenerateHits(WorkflowState* state);

/// \brief Vote aggregation into the ranked match list and PR curve: the
/// model is fitted shard by shard (aggregate/partitioned.h), then one walk
/// re-scans the candidate stream in lockstep with the vote shards for the
/// pair identities. Majority vote needs no fit (an unfitted model yields
/// majority fractions).
Status Aggregate(WorkflowState* state);

namespace internal {

/// \brief Tokenizes every record into the join input (and, for sorted
/// neighborhood, the normalized sort keys). Shared by every machine pass
/// (MachinePass, MachinePassStream, MachinePassSharded) so all see
/// identical token sets.
similarity::JoinInput BuildJoinInput(const data::Dataset& dataset, CandidateStrategy strategy,
                                     std::vector<std::string>* keys);

/// \brief True matches among `pairs` — the machine-recall numerator. The one
/// definition shared by the machine-pass sinks and the CLI's machine-only
/// report.
uint64_t CountCandidateMatches(const data::Dataset& dataset,
                               const std::vector<similarity::ScoredPair>& pairs);

/// \brief What the cluster-based crowd boundary precomputes.
struct ClusterBoundary {
  /// Component-aligned bucket plan (which bucket holds each record).
  ComponentBucketPlan plan;
  /// Per-bucket pairs, tagged with their global sorted index.
  std::unique_ptr<ShardedSpillStore<IndexedPair>> bucket_pairs;
  /// The full cluster-HIT list — identical to hitgen::TwoTieredGenerator's
  /// output over the whole pair graph.
  std::vector<hitgen::ClusterBasedHit> hits;
  /// Bytes the bucket store spilled while routing pairs.
  uint64_t spilled_bytes = 0;
};

/// \brief Cluster-based boundary: component buckets, per-bucket two-tiered
/// decomposition, one global pack. Produces the HIT list TwoTieredGenerator
/// produces over the whole pair graph — same HITs, same order — because
///  (1) buckets hold whole components, in the ConnectedComponents order
///      (ascending smallest member), so concatenating the per-bucket
///      decompositions reproduces the global component order;
///  (2) each bucket's subgraph is remapped to dense *local* vertex ids in
///      ascending global order — a strictly monotone renaming, so every id
///      comparison, tie-break, adjacency order, and component order the
///      decomposition observes is preserved, while the per-bucket graph
///      costs O(bucket records) instead of O(all records); and
///  (3) the bottom-tier pack runs once, globally, over the identical scc
///      sequence (all small components in component order, then all LCC
///      parts in LCC order — exactly TwoTieredGenerator::Generate's order).
/// Exposed for partition_test, which asserts the identity directly.
Result<ClusterBoundary> BuildClusterBoundary(const PairStream& stream, uint32_t num_records,
                                             uint64_t partition_capacity,
                                             uint32_t cluster_size,
                                             uint64_t memory_budget_bytes);

}  // namespace internal

}  // namespace core
}  // namespace crowder

#endif  // CROWDER_CORE_STAGES_H_

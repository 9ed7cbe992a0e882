// The workflow's machine-facing phases (CrowdER §2.2), as plain functions
// over the shared WorkflowState:
//
//   RunMachinePass  records → candidate pairs, in bounded blocks through
//                   WorkflowState::stream (spilling past the budget)
//   GenerateHits    candidate pairs → HITs, and the layout of the crowd
//                   rounds: the partition capacity, the vote-table tiles,
//                   and for cluster-based HITs the HIT list, its ranges and
//                   each range's pairs (internal::BuildClusterBoundary:
//                   component buckets + per-bucket top tier over local-id
//                   subgraphs + one global pack). Pair-based HITs are
//                   packed partition by partition by the driver's rounds.
//   Aggregate       votes → ranked matches + PR curve, shard by shard
//
// core::WorkflowDriver (driver.h) runs the first two in Start and Aggregate
// after the last crowd round, timing each into PipelineStats under the
// stage names "machine-pass", "hit-gen" and "aggregate". The crowd phase
// between them is a sequence of *rounds*: the driver serves the contexts
// GenerateHits laid out one HIT batch at a time, any crowd::CrowdBackend
// answers it, and the driver files the votes into the spill-backed
// VoteShardStore; its wall time is reported as the "crowd" stage.
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

/// \brief The crowd-round layout of cluster-based HITs, built by
/// internal::BuildClusterBoundary.
struct ClusterBoundary {
  /// The full cluster-HIT list — identical to hitgen::TwoTieredGenerator's
  /// output over the whole pair graph. Bounded by the two-tiered
  /// decomposition, not by |P|, so it is kept whole.
  std::vector<hitgen::ClusterBasedHit> hits;
  /// HITs per crowd range: max(1, capacity / (k(k-1)/2)). A HIT of k
  /// records asks at most k(k-1)/2 pairs, so one range's pair context stays
  /// within the partition capacity.
  size_t hits_per_range = 1;
  /// The pair→HIT-range store: shard r holds every candidate pair some HIT
  /// of range r asks, once, in (bucket, global index) order.
  std::unique_ptr<ShardedSpillStore<IndexedPair>> range_pairs;
  /// Bytes the component-bucket and range stores spilled.
  uint64_t spilled_bytes = 0;
  /// Wall time of the range-store build.
  double index_wall_ms = 0.0;
};

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

  // ---- The crowd-round layout, set by GenerateHits (core/partition.h). ----

  /// Pairs per crowd partition. For pair-based HITs it is a multiple of
  /// pairs_per_hit, and each partition of the sorted stream is one context.
  uint64_t partition_capacity = 0;
  /// Cluster-based only: the HITs and their ranges, one context per range.
  ClusterBoundary cluster;
  /// The disk-backed vote table, tiled by partition_capacity; filled by the
  /// driver's crowd rounds, drained by Aggregate.
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

/// \brief HIT generation, which lays out the crowd rounds: resolves the
/// partition capacity and tiles the vote table by it. Pair-based HITs are
/// left to the driver's rounds (packed per partition as the partitions are
/// drawn from the stream); cluster-based HITs run
/// internal::BuildClusterBoundary — the two-tiered generator's HIT list and
/// its ranges, without ever holding the whole pair graph.
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

/// \brief Cluster-based boundary: component buckets, the per-bucket top
/// tier, one global pack, then the pair→HIT-range store. Produces the HIT
/// list TwoTieredGenerator produces over the whole pair graph — same HITs,
/// same order — because
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
/// The bucket plan and store are locals: one sorted pass over the buckets
/// joins each pair against the HITs that ask it, so the range store
/// replays in (bucket, global index) order. Exposed for partition_test,
/// which asserts the identity and the range store directly.
Result<ClusterBoundary> BuildClusterBoundary(const PairStream& stream, uint32_t num_records,
                                             uint64_t partition_capacity,
                                             uint32_t cluster_size,
                                             uint64_t memory_budget_bytes);

}  // namespace internal

}  // namespace core
}  // namespace crowder

#endif  // CROWDER_CORE_STAGES_H_

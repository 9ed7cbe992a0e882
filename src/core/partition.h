/// \file
/// \brief The partitioned crowd boundary's plans: how the workflow splits
/// HIT generation, crowd simulation, vote storage, and aggregation into
/// pair partitions, so under a memory budget the full pair list, the pair
/// graph, and the vote table never have to be resident.
///
///  * `ResolvePartitionCapacity` and `TileShardCounts` size the partitions
///    and tile the vote table (aggregate::VoteShardStore) by them.
///  * `AlignedPartitionCapacity` serves pair-based HITs: partition
///    boundaries must fall on HIT boundaries to be invisible.
///  * `PlanComponentBuckets` serves cluster-based HITs: partitions must
///    hold whole connected components, because candidate pairs never cross
///    components and the two-tiered decomposition is component-local.
///
/// Every partitioned structure keeps its blocks in a ShardedSpillStore
/// (common/spill.h), the one place that decides what spills.
/// `GenerateHits` (core/stages.cc) applies both plans: it lays out the
/// crowd rounds, and for cluster-based HITs builds the per-range pair
/// stores from component buckets that live only as long as HIT
/// generation. The driver (core/driver.cc) serves the contexts. Why
/// partitioning is invisible in the output is spelled out in
/// docs/ARCHITECTURE.md.
#ifndef CROWDER_CORE_PARTITION_H_
#define CROWDER_CORE_PARTITION_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/pipeline.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace core {

/// \brief How large one crowd-boundary partition may be, in pairs.
/// `partition_pairs` (explicit, e.g. `crowder_cli --partition-pairs`) wins;
/// otherwise a share of the memory budget; otherwise unbounded (a single
/// partition — the unbounded run).
uint64_t ResolvePartitionCapacity(uint64_t partition_pairs, uint64_t memory_budget_bytes);

/// \brief Rounds a partition capacity down to a multiple of `pairs_per_hit`
/// (never below one HIT). Pair-based HITs close exactly every
/// `pairs_per_hit` pairs of the global sorted sequence, so a partition
/// boundary at any multiple of it is invisible to HIT packing — which is
/// what makes partitioned pair-HIT generation byte-identical to one pack
/// over the whole sorted sequence.
uint64_t AlignedPartitionCapacity(uint64_t capacity_pairs, uint32_t pairs_per_hit);

/// \brief Tiles [0, total) into contiguous ranges of at most `capacity` and
/// returns the per-range sizes — the aggregate::VoteShardStore shard
/// layout, which for pair-based HITs is also the crowd partition layout.
std::vector<uint64_t> TileShardCounts(uint64_t total, uint64_t capacity);

/// \brief A candidate pair tagged with its global position in the
/// (a, b)-sorted surviving pair list. Component buckets reorder pairs by
/// component, so each routed pair carries the global index its votes must
/// be filed under (the vote table's pair-indexing contract).
struct IndexedPair {
  /// Position in the globally sorted pair list.
  uint64_t index = 0;
  /// The pair itself (records + machine likelihood).
  similarity::ScoredPair pair;
};

/// \brief The component-aligned partition plan for cluster-based HITs:
/// every connected component of the candidate pair graph lands whole in
/// exactly one bucket, buckets are filled greedily in component order
/// (components ordered by smallest member, matching
/// graph::ConnectedComponents), and a component larger than the capacity
/// gets a bucket of its own (the memory bound degrades to the largest
/// single component — unavoidable without splitting components, which
/// would change the HITs).
struct ComponentBucketPlan {
  /// Bucket id for records that belong to no candidate pair.
  static constexpr uint32_t kNoBucket = UINT32_MAX;

  /// bucket_of_record[r] = bucket holding r's component (kNoBucket if r is
  /// isolated).
  std::vector<uint32_t> bucket_of_record;
  /// Candidate pairs per bucket.
  std::vector<uint64_t> bucket_pair_counts;
  /// Connected components found (for reports).
  uint64_t num_components = 0;

  /// \brief Number of buckets planned.
  size_t num_buckets() const { return bucket_pair_counts.size(); }
};

/// \brief Plans component buckets from the sorted candidate stream with one
/// union-find pass (O(records) resident). `capacity_pairs` bounds the pairs
/// per bucket (subject to the whole-component rule above).
Result<ComponentBucketPlan> PlanComponentBuckets(const PairStream& stream,
                                                 uint32_t num_records,
                                                 uint64_t capacity_pairs);

}  // namespace core
}  // namespace crowder

#endif  // CROWDER_CORE_PARTITION_H_

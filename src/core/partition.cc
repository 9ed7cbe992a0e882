#include "core/partition.h"

#include <algorithm>

#include "common/logging.h"
#include "graph/union_find.h"

namespace crowder {
namespace core {

uint64_t ResolvePartitionCapacity(uint64_t partition_pairs, uint64_t memory_budget_bytes) {
  // Hard ceiling: a vote shard addresses its pairs with 32-bit local
  // indices (aggregate::VoteShardStore's staged votes), so no partition may
  // cover more. Unreachable in practice — 2^32 pairs is a 68 GB resident
  // pair list — but capping here turns silent truncation into more
  // partitions.
  constexpr uint64_t kMaxCapacity = UINT32_MAX;
  if (partition_pairs > 0) return std::min(partition_pairs, kMaxCapacity);
  if (memory_budget_bytes > 0) {
    // A partition's resident cost is its pair list plus the HIT/context/vote
    // structures built over it, all pair-proportional with small constants;
    // an eighth of the budget in raw pairs leaves comfortable headroom for
    // the rest while keeping partitions coarse enough that per-partition
    // overheads stay negligible.
    const uint64_t pairs = memory_budget_bytes / (8 * sizeof(similarity::ScoredPair));
    return std::min(std::max<uint64_t>(pairs, 1024), kMaxCapacity);
  }
  return kMaxCapacity;  // effectively a single partition
}

uint64_t AlignedPartitionCapacity(uint64_t capacity_pairs, uint32_t pairs_per_hit) {
  CROWDER_CHECK_GT(pairs_per_hit, 0u);
  if (capacity_pairs == UINT64_MAX) return capacity_pairs;
  const uint64_t aligned = capacity_pairs - capacity_pairs % pairs_per_hit;
  return std::max<uint64_t>(aligned, pairs_per_hit);
}

std::vector<uint64_t> TileShardCounts(uint64_t total, uint64_t capacity) {
  CROWDER_CHECK_GT(capacity, 0u);
  std::vector<uint64_t> counts;
  for (uint64_t start = 0; start < total; start += capacity) {
    counts.push_back(std::min<uint64_t>(capacity, total - start));
  }
  return counts;
}

// ---------------------------------------------------------------------------
// PlanComponentBuckets
// ---------------------------------------------------------------------------

Result<ComponentBucketPlan> PlanComponentBuckets(const PairStream& stream,
                                                 uint32_t num_records,
                                                 uint64_t capacity_pairs) {
  if (capacity_pairs == 0) return Status::InvalidArgument("capacity_pairs must be positive");

  // One pass: union endpoints, maintaining the pair count of each current
  // root (stale counts at non-roots are never read — only final roots are).
  graph::UnionFind uf(num_records);
  std::vector<uint64_t> root_pairs(num_records, 0);
  std::vector<char> has_pair(num_records, 0);
  CROWDER_RETURN_NOT_OK(stream.ScanSorted([&](const PairBlock& block) {
    for (const auto& p : block) {
      if (p.a >= num_records || p.b >= num_records) {
        return Status::OutOfRange("pair references record beyond num_records");
      }
      has_pair[p.a] = 1;
      has_pair[p.b] = 1;
      const uint32_t ra = uf.Find(p.a);
      const uint32_t rb = uf.Find(p.b);
      if (ra == rb) {
        ++root_pairs[ra];
      } else {
        const uint64_t merged = root_pairs[ra] + root_pairs[rb] + 1;
        uf.Union(ra, rb);
        root_pairs[uf.Find(ra)] = merged;
      }
    }
    return Status::OK();
  }));

  // Components discovered in ascending-smallest-member order (the
  // graph::ConnectedComponents order), then greedy capacity-bounded fill.
  ComponentBucketPlan plan;
  plan.bucket_of_record.assign(num_records, ComponentBucketPlan::kNoBucket);
  std::vector<uint32_t> bucket_of_root(num_records, ComponentBucketPlan::kNoBucket);
  uint64_t current_pairs = 0;
  for (uint32_t r = 0; r < num_records; ++r) {
    if (!has_pair[r]) continue;
    const uint32_t root = uf.Find(r);
    if (bucket_of_root[root] == ComponentBucketPlan::kNoBucket) {
      // First member (= smallest) of a new component: place the component.
      ++plan.num_components;
      const uint64_t pairs = root_pairs[root];
      if (plan.bucket_pair_counts.empty() ||
          (current_pairs > 0 && current_pairs + pairs > capacity_pairs)) {
        plan.bucket_pair_counts.push_back(0);
        current_pairs = 0;
      }
      bucket_of_root[root] = static_cast<uint32_t>(plan.bucket_pair_counts.size() - 1);
      plan.bucket_pair_counts.back() += pairs;
      current_pairs += pairs;
    }
    plan.bucket_of_record[r] = bucket_of_root[root];
  }
  return plan;
}

}  // namespace core
}  // namespace crowder

#include "shard/plan.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "similarity/join_internal.h"

namespace crowder {
namespace shard {

uint32_t ShardPlan::OwnerOfPosition(uint64_t pos) const {
  for (uint32_t s = 0; s < shards.size(); ++s) {
    if (pos >= shards[s].owned_begin && pos < shards[s].owned_end) return s;
  }
  return num_shards() == 0 ? 0 : num_shards() - 1;
}

Result<ShardPlan> BuildShardPlan(const similarity::JoinInput& input,
                                 const similarity::JoinOptions& options, uint32_t num_shards) {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " + std::to_string(num_shards));
  }
  if (options.threshold <= 0.0) {
    return Status::InvalidArgument(
        "sharded join requires a positive threshold (prefix filtering degenerates at " +
        std::to_string(options.threshold) + ")");
  }
  CROWDER_RETURN_NOT_OK(similarity::ValidateJoin(input, options));

  const uint64_t n = input.sets.size();
  ShardPlan plan;

  // The canonical processing order, byte-identical to JoinPlan::by_size:
  // ranked_size(r) == |sets[r]| (re-ranking permutes tokens, never sizes),
  // and std::stable_sort over iota breaks ties by record id exactly as
  // BuildJoinPlan does.
  plan.by_size.resize(n);
  std::iota(plan.by_size.begin(), plan.by_size.end(), 0);
  std::stable_sort(plan.by_size.begin(), plan.by_size.end(), [&](uint32_t x, uint32_t y) {
    return input.sets[x].size() < input.sets[y].size();
  });

  // Cumulative weights along the order; weight = size + 1 so bands of empty
  // records still advance the balance point.
  std::vector<uint64_t> cum(n + 1, 0);
  for (uint64_t p = 0; p < n; ++p) {
    cum[p + 1] = cum[p] + input.sets[plan.by_size[p]].size() + 1;
  }
  const uint64_t total = cum[n];

  plan.shards.resize(num_shards);
  // Owned band s = positions whose cumulative weight falls in
  // [s, s + 1) / num_shards of the total — a deterministic partition of
  // [0, n) into contiguous, possibly empty bands.
  uint64_t begin = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    const uint64_t target = (s + 1 == num_shards) ? total : total * (s + 1) / num_shards;
    uint64_t end = begin;
    while (end < n && cum[end + 1] <= target) ++end;
    // Never let a later band start past a nonzero target with nothing taken
    // when records remain and this is the last chance to take them.
    if (s + 1 == num_shards) end = n;
    plan.shards[s].owned_begin = begin;
    plan.shards[s].owned_end = end;
    begin = end;
  }

  // Replica bands: for each shard, the minimum admissible partner size over
  // its owned non-empty records (empty records never pair at a positive
  // threshold, so they neither need partners nor widen the band), then the
  // first position of at least that size — sizes are non-decreasing along
  // the order, so std::partition_point finds the contiguous lower edge.
  for (uint32_t s = 0; s < num_shards; ++s) {
    ShardAssignment& a = plan.shards[s];
    uint64_t min_partner = 0;
    bool any = false;
    for (uint64_t p = a.owned_begin; p < a.owned_end; ++p) {
      const size_t size = input.sets[plan.by_size[p]].size();
      if (size == 0) continue;
      const auto bounds = similarity::internal::ComputePrefixBounds(options.threshold, size);
      if (!any || bounds.min_partner < min_partner) min_partner = bounds.min_partner;
      any = true;
    }
    if (!any) {
      a.replica_begin = a.owned_begin;
      continue;
    }
    const auto* first = plan.by_size.data();
    const auto* cut = std::partition_point(first, first + a.owned_begin, [&](uint32_t rec) {
      return input.sets[rec].size() < min_partner;
    });
    a.replica_begin = static_cast<uint64_t>(cut - first);
  }
  return plan;
}

}  // namespace shard
}  // namespace crowder

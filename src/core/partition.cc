#include "core/partition.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "graph/union_find.h"

namespace crowder {
namespace core {

uint64_t ResolvePartitionCapacity(uint64_t partition_pairs, uint64_t memory_budget_bytes) {
  // Hard ceiling: a vote shard addresses its pairs with 32-bit local
  // indices (VoteShardStore's staged votes), so no partition may cover more.
  // Unreachable in practice — 2^32 pairs is a 68 GB resident pair list —
  // but capping here turns silent truncation into more partitions.
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
// VoteShardStore
// ---------------------------------------------------------------------------

VoteShardStore::VoteShardStore(uint64_t memory_budget_bytes,
                               std::vector<uint64_t> shard_pair_counts)
    : staged_(std::make_unique<ShardedSpillStore<StagedVote>>(memory_budget_bytes)),
      memory_budget_bytes_(memory_budget_bytes),
      counts_(std::move(shard_pair_counts)) {
  starts_.reserve(counts_.size());
  uint64_t start = 0;
  for (uint64_t count : counts_) {
    // Votes address pairs within a shard with 32 bits; a larger shard would
    // silently truncate (ResolvePartitionCapacity caps the workflow's shard
    // layouts below this).
    CROWDER_CHECK_LE(count, uint64_t{UINT32_MAX}) << "vote shard covers too many pairs";
    starts_.push_back(start);
    start += count;
  }
  staged_->AddShards(counts_.size());
  shard_votes_.assign(counts_.size(), 0);
}

uint64_t VoteShardStore::total_votes() const {
  uint64_t total = 0;
  for (uint32_t votes : shard_votes_) total += votes;
  return total;
}

uint64_t VoteShardStore::shard_start(size_t shard) const {
  CROWDER_CHECK_LT(shard, starts_.size());
  return starts_[shard];
}

uint64_t VoteShardStore::shard_pairs(size_t shard) const {
  CROWDER_CHECK_LT(shard, counts_.size());
  return counts_[shard];
}

uint64_t VoteShardStore::spilled_bytes() const {
  if (staged_ != nullptr) return staged_->spilled_bytes();
  return staged_spilled_bytes_ + (compacted_log_ ? compacted_log_->bytes_written() : 0);
}

Status VoteShardStore::Append(uint64_t global_pair_index, const aggregate::Vote& vote) {
  if (staged_ == nullptr) return Status::InvalidArgument("Append on a finished vote store");
  // Locality hint first: crowd emission walks pairs roughly in index order.
  size_t shard = last_shard_;
  if (shard >= counts_.size() || global_pair_index < starts_[shard] ||
      global_pair_index >= starts_[shard] + counts_[shard]) {
    const auto it = std::upper_bound(starts_.begin(), starts_.end(), global_pair_index);
    if (it == starts_.begin()) {
      return Status::OutOfRange("vote for pair index before the first shard");
    }
    shard = static_cast<size_t>((it - starts_.begin()) - 1);
    if (global_pair_index >= starts_[shard] + counts_[shard]) {
      return Status::OutOfRange("vote for pair index beyond the sharded range");
    }
    last_shard_ = shard;
  }
  // A compacted shard's row offsets are 32-bit.
  if (shard_votes_[shard] == UINT32_MAX) {
    return Status::OutOfRange("vote shard holds too many votes");
  }
  CROWDER_ASSIGN_OR_RETURN(const uint32_t dense, workers_.Intern(vote.worker_id));
  StagedVote staged;
  staged.local_index = static_cast<uint32_t>(global_pair_index - starts_[shard]);
  staged.vote = aggregate::PackVote(dense, vote.says_match);
  CROWDER_RETURN_NOT_OK(staged_->AppendRecord(shard, staged));
  ++shard_votes_[shard];
  return Status::OK();
}

Status VoteShardStore::Finish() {
  if (staged_ == nullptr) return Status::InvalidArgument("Finish on a finished vote store");
  CROWDER_RETURN_NOT_OK(staged_->Finish());
  compacted_.resize(counts_.size());
  uint64_t resident_bytes = 0;
  std::vector<StagedVote> staged;
  std::vector<uint32_t> fill;
  for (size_t shard = 0; shard < counts_.size(); ++shard) {
    staged.clear();
    CROWDER_RETURN_NOT_OK(staged_->Scan(shard, [&](const std::vector<StagedVote>& block) {
      staged.insert(staged.end(), block.begin(), block.end());
      return Status::OK();
    }));

    // Counting sort on the local pair index. Rows run to the last voted
    // pair; placing votes in staged (= append) order keeps each pair's
    // votes in cast order.
    CompactedShard& out = compacted_[shard];
    aggregate::FlatVoteShard& flat = out.flat;
    flat.num_pairs = counts_[shard];
    size_t rows = 0;
    for (const StagedVote& v : staged) rows = std::max<size_t>(rows, size_t{v.local_index} + 1);
    if (rows > 0) {
      flat.offsets.assign(rows + 1, 0);
      for (const StagedVote& v : staged) ++flat.offsets[v.local_index + 1];
      for (size_t i = 1; i <= rows; ++i) flat.offsets[i] += flat.offsets[i - 1];
      fill.assign(flat.offsets.begin(), flat.offsets.end() - 1);
      flat.votes.resize(staged.size());
      for (const StagedVote& v : staged) flat.votes[fill[v.local_index]++] = v.vote;
    }

    const uint64_t bytes = (flat.offsets.size() + flat.votes.size()) * sizeof(uint32_t);
    if (memory_budget_bytes_ == 0 || resident_bytes + bytes <= memory_budget_bytes_) {
      resident_bytes += bytes;
      continue;
    }
    if (!compacted_log_) {
      CROWDER_ASSIGN_OR_RETURN(SpillLog<uint32_t> log, SpillLog<uint32_t>::Create());
      compacted_log_ = std::make_unique<SpillLog<uint32_t>>(std::move(log));
    }
    out.spilled = true;
    out.block = compacted_log_->num_blocks();
    out.num_offsets = flat.offsets.size();
    out.num_votes = flat.votes.size();
    std::vector<uint32_t> block = std::move(flat.offsets);
    block.insert(block.end(), flat.votes.begin(), flat.votes.end());
    CROWDER_RETURN_NOT_OK(compacted_log_->AppendBlock(block));
    flat.offsets = {};
    flat.votes = {};
  }
  staged_spilled_bytes_ = staged_->spilled_bytes();
  staged_.reset();  // the staged log and its spill files are no longer needed
  return Status::OK();
}

Status VoteShardStore::WithShard(
    size_t shard, const std::function<Status(const aggregate::FlatVoteShard&)>& fn) {
  if (staged_ != nullptr) return Status::InvalidArgument("WithShard before Finish");
  if (shard >= compacted_.size()) {
    return Status::OutOfRange("shard " + std::to_string(shard) + " of " +
                              std::to_string(compacted_.size()));
  }
  const CompactedShard& c = compacted_[shard];
  if (!c.spilled) return fn(c.flat);
  // One positioned read per array, straight into the reused buffer.
  CROWDER_ASSIGN_OR_RETURN(auto cursor, compacted_log_->OpenBlock(c.block));
  read_buffer_.num_pairs = c.flat.num_pairs;
  read_buffer_.offsets.resize(c.num_offsets);
  read_buffer_.votes.resize(c.num_votes);
  CROWDER_ASSIGN_OR_RETURN(const size_t got_offsets,
                           cursor.Read(read_buffer_.offsets.data(), c.num_offsets));
  CROWDER_ASSIGN_OR_RETURN(const size_t got_votes,
                           cursor.Read(read_buffer_.votes.data(), c.num_votes));
  if (got_offsets != c.num_offsets || got_votes != c.num_votes) {
    return Status::IOError("vote shard spill read: truncated block");
  }
  return fn(read_buffer_);
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

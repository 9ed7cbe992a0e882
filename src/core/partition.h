/// \file
/// \brief The partitioned crowd boundary: bounded-memory stores and
/// partition plans that let the streaming workflow run HIT generation, crowd
/// simulation, vote storage, and aggregation one pair partition at a time —
/// so the full pair list, the pair graph, and the vote table never have to
/// be resident (ROADMAP's "disk-backed vote table / partitioned
/// aggregation" unlock).
///
/// Three building blocks, all budget-aware and spill-backed by the generic
/// SpillLog (core/spill.h):
///
///  * `ShardedSpillStore<T>` — N append-order record sequences ("shards")
///    sharing one memory budget; blocks beyond the budget spill to one
///    SpillLog per shard. Replay is per shard, in exact append order.
///  * `VoteShardStore` — the disk-backed vote table. The vote table's
///    pair-indexing contract (aggregate/votes.h) aligns votes with
///    positions in the surviving pair list; the store slices that index
///    space into contiguous ranges and implements
///    `aggregate::VoteShardSource`, so the sharded aggregators
///    (aggregate/partitioned.h) can run with one resident shard.
///  * partition plans — `AlignedPartitionCapacity` for pair-based HITs
///    (partition boundaries must fall on HIT boundaries to be invisible)
///    and `PlanComponentBuckets` for cluster-based HITs (partitions must
///    hold whole connected components, because candidate pairs never cross
///    components and the two-tiered decomposition is component-local).
///
/// The drivers that wire these into `HybridWorkflow::Run` live in
/// core/stages.cc; the byte-identity argument for the whole boundary is
/// spelled out in docs/ARCHITECTURE.md.
#ifndef CROWDER_CORE_PARTITION_H_
#define CROWDER_CORE_PARTITION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "aggregate/partitioned.h"
#include "aggregate/votes.h"
#include "common/result.h"
#include "core/pipeline.h"
#include "core/spill.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace core {

/// \brief How large one crowd-boundary partition may be, in pairs.
/// `partition_pairs` (explicit, e.g. `crowder_cli --partition-pairs`) wins;
/// otherwise a share of the memory budget; otherwise unbounded (a single
/// partition — the degenerate case that still exercises the partitioned
/// code path).
uint64_t ResolvePartitionCapacity(uint64_t partition_pairs, uint64_t memory_budget_bytes);

/// \brief Rounds a partition capacity down to a multiple of `pairs_per_hit`
/// (never below one HIT). Pair-based HITs close exactly every
/// `pairs_per_hit` pairs of the global sorted sequence, so a partition
/// boundary at any multiple of it is invisible to HIT packing — which is
/// what makes partitioned pair-HIT generation byte-identical to the
/// materialized pack.
uint64_t AlignedPartitionCapacity(uint64_t capacity_pairs, uint32_t pairs_per_hit);

/// \brief Tiles [0, total) into contiguous ranges of at most `capacity` and
/// returns the per-range sizes — the VoteShardStore shard layout, which for
/// pair-based HITs is also the crowd partition layout.
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

/// \brief N append-order record sequences ("shards") under one shared
/// memory budget. Blocks append to a shard in memory until the budget is
/// exhausted; further blocks spill to that shard's SpillLog. `Scan` replays
/// one shard's records in exact append order, any number of times, after
/// `Finish`.
///
/// Not thread-safe; the workflow appends from the driving thread.
template <typename T>
class ShardedSpillStore {
 public:
  /// \brief `memory_budget_bytes` caps resident record bytes across all
  /// shards (0 = unbounded, never spills).
  explicit ShardedSpillStore(uint64_t memory_budget_bytes = 0)
      : memory_budget_bytes_(memory_budget_bytes) {}

  /// \brief Appends `count` empty shards; ids are assigned sequentially.
  void AddShards(size_t count) { shards_.resize(shards_.size() + count); }

  /// \brief Shards created so far.
  size_t num_shards() const { return shards_.size(); }

  /// \brief Appends one block to `shard` (records keep append order, also
  /// relative to any records still sitting in the shard's AppendRecord
  /// buffer — those are flushed first).
  Status Append(size_t shard, std::vector<T>&& block) {
    CROWDER_CHECK_LT(shard, shards_.size());
    if (finished_) return Status::InvalidArgument("Append on a finished store");
    if (block.empty()) return Status::OK();
    if (!shards_[shard].buffer.empty()) {
      // FlushBuffer re-enters Append with the buffer already detached, so
      // this cannot recurse further.
      CROWDER_RETURN_NOT_OK(FlushBuffer(shard));
    }
    Shard& s = shards_[shard];
    s.records += block.size();
    const uint64_t block_bytes = static_cast<uint64_t>(block.size()) * sizeof(T);
    if (memory_budget_bytes_ > 0 &&
        memory_bytes_ + buffer_bytes_ + block_bytes > memory_budget_bytes_) {
      if (!s.log) {
        CROWDER_ASSIGN_OR_RETURN(SpillLog<T> log, SpillLog<T>::Create());
        s.log = std::make_unique<SpillLog<T>>(std::move(log));
      }
      s.order.push_back({true, s.log->num_blocks()});
      return s.log->AppendBlock(block);
    }
    memory_bytes_ += block_bytes;
    s.order.push_back({false, s.mem_blocks.size()});
    s.mem_blocks.push_back(std::move(block));
    return Status::OK();
  }

  /// \brief Minimum records a budget-pressure drain will flush as one
  /// block. The floor bounds the spill-block metadata (every block costs
  /// ~32 resident bytes of offsets) and keeps sustained over-budget
  /// appends from degenerating into a per-record flush storm; the price is
  /// a documented residency slack of up to
  /// `num_shards * kMinFlushRecords * sizeof(T)` beyond the budget (see
  /// memory_bytes()).
  static constexpr size_t kMinFlushRecords = 64;

  /// \brief Appends one record to `shard` through a small per-shard buffer
  /// (flushed as a block every `kBufferRecords` records, under budget
  /// pressure once the buffer holds at least `kMinFlushRecords`, and at
  /// Finish). Buffered bytes count against the budget — with many shards
  /// the idle buffers would otherwise add
  /// O(num_shards * kBufferRecords * sizeof(T)) of unaccounted residency.
  Status AppendRecord(size_t shard, const T& record) {
    CROWDER_CHECK_LT(shard, shards_.size());
    if (finished_) return Status::InvalidArgument("AppendRecord on a finished store");
    Shard& s = shards_[shard];
    s.buffer.push_back(record);
    buffer_bytes_ += sizeof(T);
    if (s.buffer.size() >= kBufferRecords) return FlushBuffer(shard);
    if (memory_budget_bytes_ > 0 &&
        memory_bytes_ + buffer_bytes_ > memory_budget_bytes_ &&
        s.buffer.size() >= kMinFlushRecords) {
      // Past the budget the flushed block spills, freeing its buffered
      // bytes. Only the shard that just grew is flushed (no O(num_shards)
      // drain per append), and only at block granularity — buffers below
      // the floor are the documented slack.
      return FlushBuffer(shard);
    }
    return Status::OK();
  }

  /// \brief Flushes every per-shard buffer and seals the store; Append
  /// afterwards is an error, Scan becomes legal.
  Status Finish() {
    if (finished_) return Status::InvalidArgument("Finish on a finished store");
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (!shards_[i].buffer.empty()) {
        CROWDER_RETURN_NOT_OK(FlushBuffer(i));
      }
    }
    finished_ = true;
    return Status::OK();
  }

  /// \brief Whether Finish has sealed the store.
  bool finished() const { return finished_; }

  /// \brief Visits every block of `shard` in append order. Requires
  /// Finish(); repeatable. A non-OK status from `fn` aborts the scan.
  Status Scan(size_t shard, const std::function<Status(const std::vector<T>&)>& fn) const {
    CROWDER_CHECK_LT(shard, shards_.size());
    if (!finished_) return Status::InvalidArgument("Scan before Finish");
    const Shard& s = shards_[shard];
    for (const BlockRef& ref : s.order) {
      if (ref.spilled) {
        CROWDER_ASSIGN_OR_RETURN(const std::vector<T> block, s.log->ReadBlock(ref.index));
        CROWDER_RETURN_NOT_OK(fn(block));
      } else {
        CROWDER_RETURN_NOT_OK(fn(s.mem_blocks[ref.index]));
      }
    }
    return Status::OK();
  }

  /// \brief Records appended to `shard` so far.
  uint64_t shard_records(size_t shard) const {
    CROWDER_CHECK_LT(shard, shards_.size());
    return shards_[shard].records;
  }

  /// \brief Records appended across all shards.
  uint64_t total_records() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) total += s.records;
    return total;
  }

  /// \brief Record bytes currently resident in memory (blocks + buffers).
  /// Under budget pressure this stays within `memory_budget_bytes` plus the
  /// flush-floor slack (`num_shards() * kMinFlushRecords * sizeof(T)`).
  uint64_t memory_bytes() const { return memory_bytes_ + buffer_bytes_; }

  /// \brief Bytes spilled to disk across all shards.
  uint64_t spilled_bytes() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) {
      if (s.log) total += s.log->bytes_written();
    }
    return total;
  }

 private:
  static constexpr size_t kBufferRecords = 4096;

  /// Moves one shard's buffered records into the block path (which decides
  /// memory vs spill under the budget).
  Status FlushBuffer(size_t shard) {
    Shard& s = shards_[shard];
    buffer_bytes_ -= static_cast<uint64_t>(s.buffer.size()) * sizeof(T);
    std::vector<T> block;
    block.swap(s.buffer);
    return Append(shard, std::move(block));
  }

  struct BlockRef {
    bool spilled = false;
    size_t index = 0;  ///< into mem_blocks or the SpillLog's block sequence
  };

  struct Shard {
    std::vector<BlockRef> order;
    std::vector<std::vector<T>> mem_blocks;
    std::unique_ptr<SpillLog<T>> log;
    std::vector<T> buffer;
    uint64_t records = 0;
  };

  uint64_t memory_budget_bytes_;
  std::vector<Shard> shards_;
  uint64_t memory_bytes_ = 0;
  uint64_t buffer_bytes_ = 0;
  bool finished_ = false;
};

/// \brief The disk-backed vote table: votes keyed by *global pair index*,
/// sharded into the contiguous index ranges given at construction, and
/// read back as flat `aggregate::VoteShardSource` shards for partitioned
/// aggregation.
///
/// Two phases. While votes arrive, `Append` interns each worker id into a
/// dense index and stages `(local pair, packed vote)` records append-order
/// per shard, spilling beyond the budget. `Finish` then compacts each
/// shard once into CSR form (`aggregate::FlatVoteShard`) by a counting
/// sort on the local pair index and drops the staged log. A compacted shard
/// stays resident while the compacted bytes fit the budget; otherwise it is
/// one spill block, read back whole by `WithShard` into one reused buffer.
///
/// Per-pair vote order is preserved: appends arrive in global cast order
/// (HIT order, then cast order within a HIT), each shard's staged log
/// replays in append order, and the counting sort is stable — so the
/// per-pair vote sequences equal the materialized table's, which keeps
/// Dawid-Skene bitwise-identical across execution modes.
class VoteShardStore : public aggregate::VoteShardSource {
 public:
  /// \brief `shard_pair_counts[s]` is the number of pairs shard `s` covers;
  /// the shards tile the global pair index space in order.
  VoteShardStore(uint64_t memory_budget_bytes, std::vector<uint64_t> shard_pair_counts);

  /// \brief Files one vote under the pair at `global_pair_index`.
  Status Append(uint64_t global_pair_index, const aggregate::Vote& vote);

  /// \brief Compacts every shard and seals the store; required before
  /// WithShard.
  Status Finish();

  /// \brief First global pair index shard `shard` covers.
  uint64_t shard_start(size_t shard) const;
  /// \brief Number of pairs shard `shard` covers.
  uint64_t shard_pairs(size_t shard) const;
  /// \brief Votes filed across all shards.
  uint64_t total_votes() const;
  /// \brief Vote bytes written to disk: the staged records that spilled
  /// before Finish plus the compacted shards that spilled at Finish.
  uint64_t spilled_bytes() const;

  // aggregate::VoteShardSource:
  size_t num_shards() const override { return counts_.size(); }
  const std::vector<uint32_t>& worker_ids() const override { return workers_.worker_ids(); }
  /// \brief Lends shard `shard` in flat form; requires Finish.
  Status WithShard(size_t shard,
                   const std::function<Status(const aggregate::FlatVoteShard&)>& fn) override;

 private:
  /// One staged vote (SpillLog payload).
  struct StagedVote {
    uint32_t local_index = 0;  ///< pair index within the shard
    uint32_t vote = 0;         ///< aggregate::PackVote(dense worker, verdict)
  };

  /// Where a compacted shard lives: resident in `flat`, or in block `block`
  /// of `compacted_log_` as `offsets` followed by `votes`.
  struct CompactedShard {
    aggregate::FlatVoteShard flat;  ///< num_pairs always set; vectors empty if spilled
    bool spilled = false;
    size_t block = 0;
    size_t num_offsets = 0;
    size_t num_votes = 0;
  };

  std::unique_ptr<ShardedSpillStore<StagedVote>> staged_;  ///< null after Finish
  uint64_t memory_budget_bytes_;
  std::vector<uint64_t> counts_;
  std::vector<uint64_t> starts_;  ///< prefix sums of counts_
  size_t last_shard_ = 0;         ///< locality hint: votes arrive mostly in order
  aggregate::DenseWorkerIndex workers_;
  std::vector<uint32_t> shard_votes_;  ///< votes filed per shard
  uint64_t staged_spilled_bytes_ = 0;
  std::vector<CompactedShard> compacted_;
  std::unique_ptr<SpillLog<uint32_t>> compacted_log_;
  aggregate::FlatVoteShard read_buffer_;  ///< a spilled shard, read back
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

// The id-width audit: every counter, offset, and key that indexes pairs
// must survive pair indices past 2^32. Record ids are 32-bit by design
// (the dataset layer caps records at 2^32), but PAIR counts grow
// quadratically — a 10M-record run at a loose threshold clears 2^32
// candidate pairs — so pair indices, spill offsets, histogram counters,
// and partition layouts are all 64-bit. This test pins each one:
//
//   * PairKey — the canonical 64-bit pair key packs min/max record ids
//     into disjoint words with no truncation at the 2^32-1 id boundary.
//   * Partition layouts — ResolvePartitionCapacity caps every shard at
//     2^32-1 pairs (the vote store's 32-bit local index), TileShardCounts and
//     AlignedPartitionCapacity stay exact past 2^32 total pairs, and
//     VoteShardStore routes votes at global pair indices beyond 2^32 to
//     the right shard and local slot.
//   * Histogram — counters are 64-bit: merge-doubling drives a histogram's
//     count past 2^32 and the count, sum, and quantiles stay exact.
//   * Field types — static_asserts pin the declared widths of the pair
//     counters and offsets across pipeline, spill, shard, and partition
//     layers, so a future refactor narrowing one of them fails to compile
//     right here.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <utility>

#include "aggregate/partitioned.h"
#include "common/histogram.h"
#include "common/spill.h"
#include "core/partition.h"
#include "core/pipeline.h"
#include "crowd/backend.h"
#include "shard/plan.h"
#include "shard/proto.h"

namespace crowder {
namespace {

// ---- Declared widths: narrowing any of these is a compile error here. ----

template <typename A, typename B>
constexpr bool kSame = std::is_same<A, B>::value;

static_assert(kSame<decltype(std::declval<const core::PairStream&>().num_pairs()), uint64_t>,
              "PairStream pair counts must be 64-bit");
static_assert(kSame<decltype(std::declval<const core::PairStream&>().spilled_bytes()), uint64_t>,
              "PairStream spill offsets must be 64-bit");
static_assert(kSame<decltype(core::IndexedPair{}.index), uint64_t>,
              "global pair indices must be 64-bit");
static_assert(kSame<decltype(std::declval<const SpillLog<uint32_t>&>().bytes_written()), uint64_t>,
              "spill-log byte offsets must be 64-bit");
static_assert(
    kSame<decltype(std::declval<const ShardedSpillStore<uint32_t>&>().spilled_bytes()), uint64_t>,
    "spill-store byte counts must be 64-bit");
static_assert(kSame<decltype(shard::ShardAssignment{}.owned_begin), uint64_t> &&
                  kSame<decltype(shard::ShardAssignment{}.owned_end), uint64_t> &&
                  kSame<decltype(shard::ShardAssignment{}.replica_begin), uint64_t>,
              "shard band positions must be 64-bit");
static_assert(kSame<decltype(shard::WorkerStats{}.num_pairs), uint64_t> &&
                  kSame<decltype(shard::WorkerStats{}.pair_verifications), uint64_t>,
              "shard worker pair counters must be 64-bit");
static_assert(kSame<decltype(shard::JobSpec{}.num_records), uint64_t>,
              "shard job record counts must be 64-bit");
static_assert(kSame<decltype(shard::RecordEntry{}.position), uint64_t>,
              "shard record positions must be 64-bit");
static_assert(kSame<decltype(crowd::PairKey(0u, 0u)), uint64_t>,
              "the canonical pair key must be 64-bit");

// ---- PairKey packing at the id-width boundary. ----

TEST(IdWidth, PairKeyPacksFullWidthIdsWithoutCollision) {
  constexpr uint32_t kMax = UINT32_MAX;
  // min in the high word, max in the low word, independent of argument order.
  EXPECT_EQ(crowd::PairKey(3, 5), crowd::PairKey(5, 3));
  EXPECT_EQ(crowd::PairKey(3, 5) >> 32, 3u);
  EXPECT_EQ(crowd::PairKey(3, 5) & 0xFFFFFFFFull, 5u);
  EXPECT_EQ(crowd::PairKey(kMax - 1, kMax) >> 32, uint64_t{kMax - 1});
  EXPECT_EQ(crowd::PairKey(kMax - 1, kMax) & 0xFFFFFFFFull, uint64_t{kMax});
  // The boundary collisions a narrower key would produce.
  EXPECT_NE(crowd::PairKey(0, kMax), crowd::PairKey(1, 0));
  EXPECT_NE(crowd::PairKey(0, kMax), crowd::PairKey(0, kMax - 1));
  EXPECT_NE(crowd::PairKey(1, kMax), crowd::PairKey(2, 0));
}

// ---- Partition layouts past 2^32 pairs. ----

TEST(IdWidth, PartitionCapacityIsCappedAtTheVoteShardIndexWidth) {
  // Explicit capacities and the unbounded default are both clamped to
  // 2^32-1 — the vote store addresses pairs within a shard with 32 bits, and
  // the cap turns what would be silent truncation into more partitions.
  EXPECT_EQ(core::ResolvePartitionCapacity(uint64_t{1} << 40, 0), uint64_t{UINT32_MAX});
  EXPECT_EQ(core::ResolvePartitionCapacity(0, 0), uint64_t{UINT32_MAX});
  EXPECT_EQ(core::ResolvePartitionCapacity(0, UINT64_MAX / 2), uint64_t{UINT32_MAX});
  EXPECT_EQ(core::ResolvePartitionCapacity(12345, 0), 12345u);
}

TEST(IdWidth, TileShardCountsIsExactPastTwoToTheThirtyTwo) {
  const uint64_t total = (uint64_t{1} << 33) + 17;  // ~8.6e9 pairs
  const uint64_t capacity = UINT32_MAX;
  const std::vector<uint64_t> counts = core::TileShardCounts(total, capacity);
  uint64_t sum = 0;
  for (uint64_t c : counts) {
    EXPECT_LE(c, capacity);
    sum += c;
  }
  EXPECT_EQ(sum, total);
  EXPECT_EQ(counts.size(), (total + capacity - 1) / capacity);
}

TEST(IdWidth, AlignedPartitionCapacityStaysSixtyFourBit) {
  const uint64_t big = (uint64_t{1} << 33) + 5;
  EXPECT_EQ(core::AlignedPartitionCapacity(big, 10), big - big % 10);
  EXPECT_GT(core::AlignedPartitionCapacity(big, 10), uint64_t{1} << 32);
  EXPECT_EQ(core::AlignedPartitionCapacity(UINT64_MAX, 7), UINT64_MAX);
}

TEST(IdWidth, VoteShardStoreRoutesGlobalIndicesPastTwoToTheThirtyTwo) {
  // Three shards whose middle one spans the maximum 2^32-1 pairs, so the
  // third shard starts beyond 2^32. Votes filed at 64-bit global indices
  // must land in the right shard under the right (32-bit) local slot.
  aggregate::VoteShardStore store(0, {5, uint64_t{UINT32_MAX}, 7});
  ASSERT_EQ(store.num_shards(), 3u);
  EXPECT_EQ(store.shard_start(2), 5 + uint64_t{UINT32_MAX});
  ASSERT_GT(store.shard_start(2), uint64_t{1} << 32);

  aggregate::Vote vote;
  vote.worker_id = 9;
  vote.says_match = true;
  ASSERT_TRUE(store.Append(store.shard_start(2) + 3, vote).ok());
  ASSERT_TRUE(store.Append(2, vote).ok());  // shard 0, local 2
  // Beyond the tiled range: a clean error, not a wrap-around.
  EXPECT_FALSE(store.Append(store.shard_start(2) + 7, vote).ok());
  // Compaction sizes each shard's rows by its last voted pair, so the
  // 2^32-1-pair shard that no vote reached costs nothing.
  ASSERT_TRUE(store.Finish().ok());

  const uint32_t packed = aggregate::PackVote(0, true);  // worker 9 is dense 0
  ASSERT_EQ(store.worker_ids(), std::vector<uint32_t>{9});
  ASSERT_TRUE(store.WithShard(2, [&](const aggregate::FlatVoteShard& flat) {
                     EXPECT_EQ(flat.num_pairs, 7u);
                     EXPECT_EQ(std::vector<uint32_t>(flat.offsets, flat.offsets + 5),
                               (std::vector<uint32_t>{0, 0, 0, 0, 1}));
                     EXPECT_EQ(flat.num_rows, 4u);
                     EXPECT_EQ(flat.votes[0], packed);
                     return Status::OK();
                   }).ok());
  ASSERT_TRUE(store.WithShard(1, [&](const aggregate::FlatVoteShard& flat) {
                     EXPECT_EQ(flat.num_pairs, uint64_t{UINT32_MAX});
                     EXPECT_EQ(flat.num_rows, 0u);
                     return Status::OK();
                   }).ok());
  ASSERT_TRUE(store.WithShard(0, [&](const aggregate::FlatVoteShard& flat) {
                     EXPECT_EQ(flat.num_rows, 3u);
                     EXPECT_EQ(std::vector<uint32_t>(flat.offsets, flat.offsets + 4),
                               (std::vector<uint32_t>{0, 0, 0, 1}));
                     EXPECT_EQ(flat.votes[0], packed);
                     return Status::OK();
                   }).ok());
}

// ---- Histogram counters past 2^32. ----

TEST(IdWidth, HistogramCountersSurviveMergeDoublingPastTwoToTheThirtyTwo) {
  Histogram h;
  h.Record(7);
  h.Record(1000);
  // Doubling by self-merge: 2 recorded values become 2^33 counted ones.
  for (int i = 0; i < 32; ++i) {
    Histogram copy = h;
    h.Merge(copy);
  }
  const uint64_t expect = uint64_t{2} << 32;
  EXPECT_EQ(h.count(), expect);
  EXPECT_EQ(h.sum(), uint64_t{1007} * (expect / 2));
  EXPECT_EQ(h.min(), 7u);
  EXPECT_EQ(h.max(), 1000u);
  // Quantiles over >2^32 samples: the median sits in value 7's bucket
  // (exact below kSubBuckets), the p99 in 1000's.
  EXPECT_EQ(h.ValueAtQuantile(0.25), 7u);
  EXPECT_GE(h.ValueAtQuantile(0.99), 960u);
  EXPECT_LE(h.ValueAtQuantile(0.99), 1000u);
}

TEST(IdWidth, HistogramRecordsValuesPastTwoToTheThirtyTwo) {
  Histogram h;
  const uint64_t big = (uint64_t{1} << 34) + 12345;
  h.Record(big);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), big);
  EXPECT_EQ(h.max(), big);
  // The bucket's upper bound must not truncate: quantile >= the value's
  // octave floor, and clamped to the observed max.
  EXPECT_EQ(h.ValueAtQuantile(1.0), big);
}

}  // namespace
}  // namespace crowder

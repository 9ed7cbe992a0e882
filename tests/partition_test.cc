// Tests for the partitioned crowd boundary's building blocks
// (core/partition.h): the sharded spill store, the disk-backed vote table,
// the partition plans, the streaming cluster boundary (local-id-remapped
// per-bucket decomposition and the pair→HIT-range store), and the
// streaming union-find resolver (core/resolution.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "core/partition.h"
#include "core/resolution.h"
#include "core/stages.h"
#include "graph/pair_graph.h"
#include "hitgen/two_tiered_generator.h"

namespace crowder {
namespace core {
namespace {

// ---------------------------------------------------------------------------
// ShardedSpillStore
// ---------------------------------------------------------------------------

std::vector<uint64_t> Drain(const ShardedSpillStore<uint64_t>& store, size_t shard) {
  std::vector<uint64_t> out;
  EXPECT_TRUE(store
                  .Scan(shard,
                        [&](const std::vector<uint64_t>& block) {
                          out.insert(out.end(), block.begin(), block.end());
                          return Status::OK();
                        })
                  .ok());
  return out;
}

TEST(ShardedSpillStoreTest, ReplaysAppendOrderPerShard) {
  ShardedSpillStore<uint64_t> store;  // unbounded: all in memory
  store.AddShards(3);
  ASSERT_TRUE(store.Append(0, {1, 2, 3}).ok());
  ASSERT_TRUE(store.Append(2, {100}).ok());
  ASSERT_TRUE(store.AppendRecord(0, 4).ok());
  ASSERT_TRUE(store.Append(1, {50, 51}).ok());
  ASSERT_TRUE(store.AppendRecord(0, 5).ok());
  ASSERT_TRUE(store.Finish().ok());

  EXPECT_EQ(Drain(store, 0), (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(Drain(store, 1), (std::vector<uint64_t>{50, 51}));
  EXPECT_EQ(Drain(store, 2), (std::vector<uint64_t>{100}));
  EXPECT_EQ(store.shard_records(0), 5u);
  EXPECT_EQ(store.total_records(), 8u);
  EXPECT_EQ(store.spilled_bytes(), 0u);
}

TEST(ShardedSpillStoreTest, BudgetForcesSpillWithoutChangingReplay) {
  // A budget far below the payload: everything after the first block must
  // round-trip through the spill files, and the replay must not notice.
  ShardedSpillStore<uint64_t> store(/*memory_budget_bytes=*/64);
  store.AddShards(2);
  std::vector<uint64_t> expected[2];
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const size_t shard = rng.Uniform(2);
    std::vector<uint64_t> block;
    for (uint64_t i = 0; i <= rng.Uniform(5); ++i) {
      block.push_back(rng.Next64());
    }
    expected[shard].insert(expected[shard].end(), block.begin(), block.end());
    ASSERT_TRUE(store.Append(shard, std::move(block)).ok());
  }
  ASSERT_TRUE(store.Finish().ok());
  EXPECT_GT(store.spilled_bytes(), 0u);
  EXPECT_LE(store.memory_bytes(), 64u);
  // Repeatable, in order, both shards.
  for (int repeat = 0; repeat < 2; ++repeat) {
    EXPECT_EQ(Drain(store, 0), expected[0]);
    EXPECT_EQ(Drain(store, 1), expected[1]);
  }
}

TEST(ShardedSpillStoreTest, MixedBlockAndRecordAppendsKeepOrder) {
  // The replay contract holds even when block and record appends interleave
  // on one shard: a block append must not overtake records still sitting in
  // the shard's buffer.
  ShardedSpillStore<uint64_t> store;
  store.AddShards(1);
  ASSERT_TRUE(store.AppendRecord(0, 1).ok());
  ASSERT_TRUE(store.Append(0, {2, 3}).ok());
  ASSERT_TRUE(store.AppendRecord(0, 4).ok());
  ASSERT_TRUE(store.Append(0, {5}).ok());
  ASSERT_TRUE(store.Finish().ok());
  EXPECT_EQ(Drain(store, 0), (std::vector<uint64_t>{1, 2, 3, 4, 5}));
}

TEST(ShardedSpillStoreTest, BufferedRecordsCountAgainstTheBudget) {
  // Many shards fed record-by-record: the idle per-shard buffers must not
  // accumulate unbounded unaccounted residency — under budget pressure a
  // buffer is flushed (to a spilled block) as soon as it reaches the flush
  // floor, so memory_bytes() stays within the budget plus the documented
  // per-shard slack no matter how many records flow through.
  const uint64_t budget = 256;
  const size_t num_shards = 64;
  ShardedSpillStore<uint64_t> store(budget);
  store.AddShards(num_shards);
  const uint64_t slack =
      num_shards * ShardedSpillStore<uint64_t>::kMinFlushRecords * sizeof(uint64_t);
  std::vector<uint64_t> expected[num_shards];
  Rng rng(99);
  for (int i = 0; i < 12000; ++i) {
    const size_t shard = rng.Uniform(num_shards);
    const uint64_t value = rng.Next64();
    expected[shard].push_back(value);
    ASSERT_TRUE(store.AppendRecord(shard, value).ok());
    ASSERT_LE(store.memory_bytes(), budget + slack);
  }
  ASSERT_TRUE(store.Finish().ok());
  EXPECT_GT(store.spilled_bytes(), 0u);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    EXPECT_EQ(Drain(store, shard), expected[shard]) << "shard " << shard;
  }
}

TEST(ShardedSpillStoreTest, LifecycleEnforced) {
  ShardedSpillStore<uint64_t> store;
  store.AddShards(1);
  EXPECT_TRUE(store.Scan(0, [](const std::vector<uint64_t>&) {
                     return Status::OK();
                   }).IsInvalidArgument());  // scan before finish
  ASSERT_TRUE(store.Finish().ok());
  EXPECT_TRUE(store.Append(0, {1}).IsInvalidArgument());  // append after finish
}

// ---------------------------------------------------------------------------
// VoteShardStore
// ---------------------------------------------------------------------------

// Decodes one flat shard back to per-pair votes with original worker ids
// (num_pairs rows; pairs past the shard's offsets are voteless).
aggregate::VoteTable Unpack(VoteShardStore* store, size_t shard) {
  aggregate::VoteTable table;
  const std::vector<uint32_t>& ids = store->worker_ids();
  EXPECT_TRUE(store
                  ->WithShard(shard,
                              [&](const aggregate::FlatVoteShard& flat) {
                                table.resize(static_cast<size_t>(flat.num_pairs));
                                for (size_t row = 0; row < flat.num_rows(); ++row) {
                                  for (uint32_t i = flat.offsets[row]; i < flat.offsets[row + 1];
                                       ++i) {
                                    const uint32_t v = flat.votes[i];
                                    table[row].push_back({ids[v >> 1], (v & 1u) != 0});
                                  }
                                }
                                return Status::OK();
                              })
                  .ok());
  return table;
}

TEST(VoteShardStoreTest, GroupsVotesByPairPreservingCastOrder) {
  // 10 pairs tiled into shards of 4/4/2; votes arrive interleaved across
  // shards and pairs, as cluster-HIT ranges produce them.
  VoteShardStore store(/*memory_budget_bytes=*/0, {4, 4, 2});
  ASSERT_TRUE(store.Append(9, {1, true}).ok());
  ASSERT_TRUE(store.Append(0, {2, false}).ok());
  ASSERT_TRUE(store.Append(5, {3, true}).ok());
  ASSERT_TRUE(store.Append(0, {4, true}).ok());
  ASSERT_TRUE(store.Append(9, {5, false}).ok());
  EXPECT_TRUE(store.WithShard(0, [](const aggregate::FlatVoteShard&) {
                     return Status::OK();
                   }).IsInvalidArgument());  // read before Finish
  ASSERT_TRUE(store.Finish().ok());
  EXPECT_TRUE(store.Finish().IsInvalidArgument());

  // Dense worker ids follow first appearance.
  EXPECT_EQ(store.worker_ids(), (std::vector<uint32_t>{1, 2, 3, 4, 5}));

  const auto shard0 = Unpack(&store, 0);
  ASSERT_EQ(shard0.size(), 4u);
  ASSERT_EQ(shard0[0].size(), 2u);
  EXPECT_EQ(shard0[0][0].worker_id, 2u);  // cast order kept
  EXPECT_FALSE(shard0[0][0].says_match);
  EXPECT_EQ(shard0[0][1].worker_id, 4u);
  EXPECT_TRUE(shard0[0][1].says_match);
  EXPECT_TRUE(shard0[1].empty());

  const auto shard1 = Unpack(&store, 1);
  ASSERT_EQ(shard1[1].size(), 1u);  // global pair 5 = local 1
  EXPECT_EQ(shard1[1][0].worker_id, 3u);

  const auto shard2 = Unpack(&store, 2);
  ASSERT_EQ(shard2[1].size(), 2u);  // global pair 9 = local 1
  EXPECT_EQ(shard2[1][0].worker_id, 1u);
  EXPECT_EQ(shard2[1][1].worker_id, 5u);

  EXPECT_EQ(store.total_votes(), 5u);
  EXPECT_EQ(store.shard_start(2), 8u);
  EXPECT_EQ(store.shard_pairs(2), 2u);
  EXPECT_TRUE(store.WithShard(3, [](const aggregate::FlatVoteShard&) {
                     return Status::OK();
                   }).IsOutOfRange());
  EXPECT_TRUE(store.Append(1, {0, true}).IsInvalidArgument());  // append after Finish
}

TEST(VoteShardStoreTest, ForcedSpillCompactsToTheUnboundedStoresShards) {
  // Votes arrive out of pair order and jump between shards, as repair and
  // re-ask rounds file them. A budget of a few bytes spills every staged
  // block and every compacted shard; the flat shards must still equal the
  // unbounded store's, byte for byte, and decode to the per-pair cast
  // order the votes were filed in.
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint64_t> counts;
    uint64_t total = 0;
    const uint64_t num_shards = 1 + rng.Uniform(6);
    for (uint64_t s = 0; s < num_shards; ++s) {
      counts.push_back(1 + rng.Uniform(50));
      total += counts.back();
    }
    VoteShardStore unbounded(0, counts);
    VoteShardStore spilling(8, counts);
    aggregate::VoteTable expected(static_cast<size_t>(total));
    const uint64_t num_votes = rng.Uniform(3000);
    for (uint64_t n = 0; n < num_votes; ++n) {
      const uint64_t pair = rng.Uniform(total);
      const aggregate::Vote vote{static_cast<uint32_t>(rng.Uniform(40)) * 104729u,
                                 rng.Bernoulli(0.5)};
      ASSERT_TRUE(unbounded.Append(pair, vote).ok());
      ASSERT_TRUE(spilling.Append(pair, vote).ok());
      expected[static_cast<size_t>(pair)].push_back(vote);
    }
    ASSERT_TRUE(unbounded.Finish().ok());
    ASSERT_TRUE(spilling.Finish().ok());
    EXPECT_EQ(unbounded.spilled_bytes(), 0u);
    if (num_votes > 0) {
      EXPECT_GT(spilling.spilled_bytes(), 0u);
    }
    EXPECT_EQ(spilling.worker_ids(), unbounded.worker_ids());
    EXPECT_EQ(spilling.total_votes(), num_votes);

    size_t start = 0;
    for (size_t shard = 0; shard < counts.size(); ++shard) {
      aggregate::FlatVoteShard want;
      ASSERT_TRUE(unbounded.WithShard(shard, [&](const aggregate::FlatVoteShard& flat) {
                               want = flat;
                               return Status::OK();
                             }).ok());
      for (int read = 0; read < 2; ++read) {  // reads are repeatable
        ASSERT_TRUE(spilling.WithShard(shard, [&](const aggregate::FlatVoteShard& flat) {
                               EXPECT_EQ(flat.num_pairs, want.num_pairs);
                               EXPECT_EQ(flat.offsets, want.offsets);
                               EXPECT_EQ(flat.votes, want.votes);
                               return Status::OK();
                             }).ok());
      }
      const auto decoded = Unpack(&spilling, shard);
      for (size_t i = 0; i < decoded.size(); ++i) {
        const auto& pair_votes = expected[start + i];
        ASSERT_EQ(decoded[i].size(), pair_votes.size()) << "pair " << start + i;
        for (size_t k = 0; k < pair_votes.size(); ++k) {
          EXPECT_EQ(decoded[i][k].worker_id, pair_votes[k].worker_id);
          EXPECT_EQ(decoded[i][k].says_match, pair_votes[k].says_match);
        }
      }
      start += static_cast<size_t>(counts[shard]);
    }
  }
}

// ---------------------------------------------------------------------------
// Partition plans
// ---------------------------------------------------------------------------

TEST(PartitionPlanTest, CapacityResolution) {
  EXPECT_EQ(ResolvePartitionCapacity(500, 1 << 20), 500u);  // explicit wins
  // Unbounded = one (effectively) partition, capped at the vote shards'
  // 32-bit local index space so oversized layouts cannot truncate.
  EXPECT_EQ(ResolvePartitionCapacity(0, 0), uint64_t{UINT32_MAX});
  EXPECT_EQ(ResolvePartitionCapacity(UINT64_MAX, 0), uint64_t{UINT32_MAX});
  const uint64_t derived = ResolvePartitionCapacity(0, 1 << 20);
  EXPECT_GT(derived, 0u);
  EXPECT_LT(derived, UINT64_MAX);

  EXPECT_EQ(AlignedPartitionCapacity(64, 10), 60u);
  EXPECT_EQ(AlignedPartitionCapacity(7, 10), 10u);  // never below one HIT
  EXPECT_EQ(AlignedPartitionCapacity(UINT64_MAX, 10), UINT64_MAX);
}

PairStream StreamOf(std::vector<similarity::ScoredPair> pairs) {
  std::sort(pairs.begin(), pairs.end(), [](const auto& x, const auto& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  PairStream stream;
  EXPECT_TRUE(stream.Append(std::move(pairs)).ok());
  EXPECT_TRUE(stream.Finish().ok());
  return stream;
}

TEST(PartitionPlanTest, ComponentBucketsKeepComponentsWhole) {
  // Components: {0,1,2} (3 pairs), {3,4} (1 pair), {5,6,7,8} (3 pairs),
  // {10,11} (1 pair). Capacity 3 pairs → buckets {comp0}, {comp1}, {comp2},
  // {comp3}? No: greedy fill packs comp1 with comp0? comp0 already holds 3
  // = capacity, so comp1 opens bucket 1; comp2 (3 pairs) opens bucket 2;
  // comp3 joins nothing (bucket 2 full) → bucket 3... comp3 has 1 pair and
  // bucket 2 holds 3 — full — so bucket 3.
  const PairStream stream = StreamOf({{0, 1, 0.9},
                                      {1, 2, 0.8},
                                      {0, 2, 0.7},
                                      {3, 4, 0.6},
                                      {5, 6, 0.5},
                                      {6, 7, 0.4},
                                      {7, 8, 0.3},
                                      {10, 11, 0.2}});
  auto plan = PlanComponentBuckets(stream, 12, /*capacity_pairs=*/3).ValueOrDie();
  EXPECT_EQ(plan.num_components, 4u);
  // Every component lands whole in one bucket.
  EXPECT_EQ(plan.bucket_of_record[0], plan.bucket_of_record[1]);
  EXPECT_EQ(plan.bucket_of_record[1], plan.bucket_of_record[2]);
  EXPECT_EQ(plan.bucket_of_record[3], plan.bucket_of_record[4]);
  EXPECT_EQ(plan.bucket_of_record[5], plan.bucket_of_record[8]);
  EXPECT_EQ(plan.bucket_of_record[10], plan.bucket_of_record[11]);
  // Isolated records belong to no bucket.
  EXPECT_EQ(plan.bucket_of_record[9], ComponentBucketPlan::kNoBucket);
  // Buckets are filled in component order and never exceed the capacity
  // (except a lone oversized component, absent here).
  for (uint64_t count : plan.bucket_pair_counts) EXPECT_LE(count, 3u);
  const uint64_t total = std::accumulate(plan.bucket_pair_counts.begin(),
                                         plan.bucket_pair_counts.end(), uint64_t{0});
  EXPECT_EQ(total, 8u);
  // Buckets partition components in order: bucket ids are non-decreasing
  // along ascending smallest members.
  EXPECT_LE(plan.bucket_of_record[0], plan.bucket_of_record[3]);
  EXPECT_LE(plan.bucket_of_record[3], plan.bucket_of_record[5]);
  EXPECT_LE(plan.bucket_of_record[5], plan.bucket_of_record[10]);
}

TEST(PartitionPlanTest, OversizedComponentGetsItsOwnBucket) {
  // One chain of 6 pairs dwarfs the capacity of 2: it must still land whole
  // in a single bucket.
  std::vector<similarity::ScoredPair> pairs;
  for (uint32_t r = 0; r + 1 < 7; ++r) pairs.push_back({r, r + 1, 0.5});
  pairs.push_back({8, 9, 0.5});
  const PairStream stream = StreamOf(std::move(pairs));
  auto plan = PlanComponentBuckets(stream, 10, /*capacity_pairs=*/2).ValueOrDie();
  EXPECT_EQ(plan.num_components, 2u);
  for (uint32_t r = 0; r < 7; ++r) {
    EXPECT_EQ(plan.bucket_of_record[r], plan.bucket_of_record[0]);
  }
  EXPECT_NE(plan.bucket_of_record[8], plan.bucket_of_record[0]);
  EXPECT_EQ(plan.bucket_pair_counts[plan.bucket_of_record[0]], 6u);
}

// ---------------------------------------------------------------------------
// Streaming cluster boundary (per-bucket local-id remap)
// ---------------------------------------------------------------------------

// The remap identity contract (stages.h, internal::BuildClusterBoundary):
// decomposing each bucket over a dense *local* vertex renaming must produce
// exactly the HIT list the materialized TwoTieredGenerator produces over
// the global graph — the renaming is strictly monotone, so every ordering
// and tie-break is preserved. Sparse, high-valued record ids (the case the
// remap exists for: per-bucket O(V) skeletons would dominate) and random
// structured graphs both must agree.
void ExpectStreamingClusterHitsMatchMaterialized(
    const std::vector<similarity::ScoredPair>& pairs, uint32_t num_records, uint32_t k,
    uint64_t capacity_pairs) {
  const PairStream stream = StreamOf(pairs);
  auto boundary =
      core::internal::BuildClusterBoundary(stream, num_records, capacity_pairs, k,
                                           /*memory_budget_bytes=*/0);
  ASSERT_TRUE(boundary.ok()) << boundary.status().ToString();

  std::vector<graph::Edge> edges;
  auto sorted = pairs;
  std::sort(sorted.begin(), sorted.end(), [](const auto& x, const auto& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  for (const auto& p : sorted) edges.push_back({p.a, p.b});
  auto graph = graph::PairGraph::Create(num_records, edges).ValueOrDie();
  hitgen::TwoTieredGenerator generator;
  auto expected = generator.Generate(&graph, k).ValueOrDie();

  ASSERT_EQ(boundary->hits.size(), expected.size());
  for (size_t h = 0; h < expected.size(); ++h) {
    EXPECT_EQ(boundary->hits[h].records, expected[h].records) << "HIT " << h;
  }
}

TEST(ClusterBoundaryTest, SparseHighIdsDecomposeIdentically) {
  // Components scattered across a 50k-record id space: a triangle, a chain
  // long enough to be an LCC at k = 4, a star, and a lone pair. Capacity 6
  // forces several buckets, so the per-bucket remap really runs on
  // subgraphs whose local id space is tiny compared to num_records.
  std::vector<similarity::ScoredPair> pairs;
  // Triangle at ~10k.
  pairs.push_back({10000, 10007, 0.9});
  pairs.push_back({10000, 10013, 0.8});
  pairs.push_back({10007, 10013, 0.7});
  // Chain of 11 records at ~25k (an LCC for k = 4).
  for (uint32_t i = 0; i < 10; ++i) {
    pairs.push_back({25000 + 3 * i, 25000 + 3 * (i + 1), 0.6});
  }
  // Star at ~40k.
  for (uint32_t i = 1; i <= 5; ++i) {
    pairs.push_back({40000, 40000 + 100 * i, 0.5});
  }
  // Lone pair near the end of the id space.
  pairs.push_back({49990, 49999, 0.4});
  ExpectStreamingClusterHitsMatchMaterialized(pairs, 50000, /*k=*/4, /*capacity_pairs=*/6);
}

// Random pairs over sparse, clustered record ids (so components form and
// ids leave gaps), plus `long_pairs` pairs between any two records (so a
// component can span another's ids), sorted and deduplicated as the
// workflow's stream is.
std::vector<similarity::ScoredPair> RandomSparsePairs(Rng* rng, uint32_t num_records,
                                                      uint32_t long_pairs = 0) {
  std::vector<similarity::ScoredPair> pairs;
  const uint64_t num_pairs = 20 + rng->Uniform(120);
  for (uint64_t i = 0; i < num_pairs; ++i) {
    const uint32_t base = static_cast<uint32_t>(rng->Uniform(num_records / 20)) * 20;
    const uint32_t a = base + static_cast<uint32_t>(rng->Uniform(10));
    const uint32_t b = base + static_cast<uint32_t>(rng->Uniform(10));
    if (a == b || std::max(a, b) >= num_records) continue;
    pairs.push_back({std::min(a, b), std::max(a, b), rng->UniformDouble()});
  }
  for (uint32_t i = 0; i < long_pairs; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng->Uniform(num_records));
    const uint32_t b = static_cast<uint32_t>(rng->Uniform(num_records));
    if (a != b) pairs.push_back({std::min(a, b), std::max(a, b), rng->UniformDouble()});
  }
  std::sort(pairs.begin(), pairs.end(), [](const auto& x, const auto& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  pairs.erase(std::unique(pairs.begin(), pairs.end(),
                          [](const auto& x, const auto& y) { return x.a == y.a && x.b == y.b; }),
              pairs.end());
  return pairs;
}

TEST(ClusterBoundaryTest, RandomGraphsDecomposeIdenticallyAtEveryCapacity) {
  Rng rng(20260731);
  for (int trial = 0; trial < 12; ++trial) {
    const uint32_t num_records = 200 + static_cast<uint32_t>(rng.Uniform(1800));
    const std::vector<similarity::ScoredPair> pairs = RandomSparsePairs(&rng, num_records);
    if (pairs.empty()) continue;
    for (const uint64_t capacity : {uint64_t{3}, uint64_t{16}, uint64_t{1} << 30}) {
      ExpectStreamingClusterHitsMatchMaterialized(pairs, num_records, /*k=*/5, capacity);
    }
  }
}

// The range store against a brute-force reading of its contract: range r's
// shard holds exactly the pairs some HIT of range r asks (both records in
// one HIT), once each, ordered by (component bucket, global index), and
// ranges are max(1, capacity / (k(k-1)/2)) HITs long. A small budget makes
// the stores spill on some trials.
TEST(ClusterBoundaryTest, RangeStoreHoldsExactlyTheRangesPairsInBucketOrder) {
  Rng rng(20261018);
  size_t bucket_ordered_ranges = 0;  // ranges whose order is not global order
  for (int trial = 0; trial < 10; ++trial) {
    const uint32_t num_records = 200 + static_cast<uint32_t>(rng.Uniform(1800));
    const std::vector<similarity::ScoredPair> pairs =
        RandomSparsePairs(&rng, num_records, /*long_pairs=*/8);
    if (pairs.empty()) continue;
    const PairStream stream = StreamOf(pairs);
    const uint64_t budget = trial % 2 == 0 ? 0 : 512;
    for (const uint64_t capacity : {uint64_t{3}, uint64_t{16}, uint64_t{1} << 30}) {
      const auto plan = PlanComponentBuckets(stream, num_records, capacity).ValueOrDie();
      for (const uint32_t k : {2u, 5u, 10u}) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " capacity " +
                     std::to_string(capacity) + " k " + std::to_string(k));
        auto boundary =
            core::internal::BuildClusterBoundary(stream, num_records, capacity, k, budget);
        ASSERT_TRUE(boundary.ok()) << boundary.status().ToString();
        const uint64_t per_hit = uint64_t{k} * (k - 1) / 2;
        EXPECT_EQ(boundary->hits_per_range,
                  static_cast<size_t>(std::max<uint64_t>(1, capacity / per_hit)));
        const size_t per_range = boundary->hits_per_range;
        const auto& hits = boundary->hits;
        const size_t num_ranges = (hits.size() + per_range - 1) / per_range;
        ASSERT_EQ(boundary->range_pairs->num_shards(), num_ranges);

        for (size_t r = 0; r < num_ranges; ++r) {
          const size_t end = std::min(hits.size(), (r + 1) * per_range);
          std::vector<IndexedPair> expected;
          for (size_t i = 0; i < pairs.size(); ++i) {
            for (size_t h = r * per_range; h < end; ++h) {
              const auto& records = hits[h].records;
              if (std::count(records.begin(), records.end(), pairs[i].a) != 0 &&
                  std::count(records.begin(), records.end(), pairs[i].b) != 0) {
                expected.push_back({i, pairs[i]});
                break;
              }
            }
          }
          std::stable_sort(expected.begin(), expected.end(), [&](const auto& x, const auto& y) {
            return plan.bucket_of_record[x.pair.a] < plan.bucket_of_record[y.pair.a];
          });
          std::vector<IndexedPair> actual;
          ASSERT_TRUE(boundary->range_pairs
                          ->Scan(r,
                                 [&](const std::vector<IndexedPair>& block) {
                                   actual.insert(actual.end(), block.begin(), block.end());
                                   return Status::OK();
                                 })
                          .ok());
          ASSERT_EQ(actual.size(), expected.size()) << "range " << r;
          bucket_ordered_ranges += !std::is_sorted(
              actual.begin(), actual.end(),
              [](const auto& x, const auto& y) { return x.index < y.index; });
          for (size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(actual[i].index, expected[i].index) << "range " << r << " entry " << i;
            EXPECT_EQ(actual[i].pair.a, expected[i].pair.a);
            EXPECT_EQ(actual[i].pair.b, expected[i].pair.b);
            EXPECT_EQ(actual[i].pair.score, expected[i].pair.score);
          }
        }
      }
    }
  }
  // The order check bites: some ranges interleave components.
  EXPECT_GT(bucket_ordered_ranges, 0u);
}

// ---------------------------------------------------------------------------
// StreamingResolver
// ---------------------------------------------------------------------------

TEST(StreamingResolverTest, EqualsTransitiveClosureResolutionOnRandomInputs) {
  // The documented contract: for any input and any feed order, the
  // streaming union-find resolver produces exactly
  // ResolveEntities(transitive_closure = true) over the confirmed pairs.
  Rng rng(424242);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t num_records = 2 + static_cast<uint32_t>(rng.Uniform(60));
    std::vector<eval::RankedPair> ranked;
    const uint64_t num_pairs = rng.Uniform(120);
    for (uint64_t i = 0; i < num_pairs; ++i) {
      const uint32_t a = static_cast<uint32_t>(rng.Uniform(num_records));
      const uint32_t b = static_cast<uint32_t>(rng.Uniform(num_records));
      if (a == b) continue;
      eval::RankedPair rp;
      rp.a = a;
      rp.b = b;
      rp.score = rng.UniformDouble();
      ranked.push_back(rp);
    }

    ResolutionOptions options;
    options.transitive_closure = true;
    const auto expected =
        ResolveEntities(num_records, ranked, options).ValueOrDie();

    // Feed the confirmed pairs in a shuffled order.
    std::vector<const eval::RankedPair*> confirmed;
    for (const auto& rp : ranked) {
      if (rp.score >= options.match_threshold) confirmed.push_back(&rp);
    }
    for (size_t i = confirmed.size(); i > 1; --i) {
      std::swap(confirmed[i - 1], confirmed[rng.Uniform(i)]);
    }
    StreamingResolver resolver(num_records);
    for (const auto* rp : confirmed) {
      ASSERT_TRUE(resolver.AddMatch(rp->a, rp->b).ok());
    }
    const auto actual = resolver.Finish().ValueOrDie();

    ASSERT_EQ(actual.clusters.size(), expected.clusters.size()) << "trial " << trial;
    EXPECT_EQ(actual.cluster_of, expected.cluster_of) << "trial " << trial;
    for (size_t c = 0; c < expected.clusters.size(); ++c) {
      EXPECT_EQ(actual.clusters[c], expected.clusters[c]) << "trial " << trial;
    }
    EXPECT_EQ(actual.num_duplicate_groups(), expected.num_duplicate_groups());
  }
}

TEST(StreamingResolverTest, RejectsBadInput) {
  StreamingResolver resolver(4);
  EXPECT_TRUE(resolver.AddMatch(0, 0).IsInvalidArgument());
  EXPECT_TRUE(resolver.AddMatch(0, 4).IsOutOfRange());
  EXPECT_TRUE(resolver.AddMatch(0, 1).ok());
}

// The service's use: records arrive one at a time and the partition is read
// after every applied match. Each read must equal a terminal Finish over
// the same records and matches.
TEST(StreamingResolverTest, GrowsAndReadsLikeAFreshFinish) {
  Rng rng(20261019);
  for (int trial = 0; trial < 20; ++trial) {
    StreamingResolver live;
    std::vector<std::pair<uint32_t, uint32_t>> matches;
    for (int step = 0; step < 80; ++step) {
      if (live.num_records() < 2 || rng.Uniform(3) == 0) {
        const uint32_t id = live.AddRecord();
        EXPECT_EQ(id + 1, live.num_records());
        continue;
      }
      const uint32_t a = static_cast<uint32_t>(rng.Uniform(live.num_records()));
      const uint32_t b = static_cast<uint32_t>(rng.Uniform(live.num_records()));
      if (a == b) continue;
      ASSERT_TRUE(live.AddMatch(a, b).ok());
      matches.emplace_back(a, b);
      const EntityClusters read = live.CurrentClusters();

      StreamingResolver fresh(live.num_records());
      for (const auto& [x, y] : matches) ASSERT_TRUE(fresh.AddMatch(x, y).ok());
      const EntityClusters expected = fresh.Finish().ValueOrDie();
      ASSERT_EQ(read.cluster_of, expected.cluster_of) << "trial " << trial << " step " << step;
      ASSERT_EQ(read.clusters, expected.clusters) << "trial " << trial << " step " << step;
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace crowder

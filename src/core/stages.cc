#include "core/stages.h"

#include <algorithm>
#include <string>

#include "aggregate/partitioned.h"
#include "common/logging.h"
#include "common/timer.h"
#include "graph/pair_graph.h"
#include "hitgen/packing.h"
#include "hitgen/two_tiered_generator.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace crowder {
namespace core {

namespace internal {

similarity::JoinInput BuildJoinInput(const data::Dataset& dataset, CandidateStrategy strategy,
                                     std::vector<std::string>* keys) {
  text::Vocabulary vocab;
  similarity::JoinInput input;
  input.sets.reserve(dataset.table.num_records());
  if (keys != nullptr && strategy == CandidateStrategy::kSortedNeighborhoodVerify) {
    keys->reserve(dataset.table.num_records());
  }
  for (uint32_t r = 0; r < dataset.table.num_records(); ++r) {
    const std::string concatenated = dataset.table.ConcatenatedRecord(r);
    input.sets.push_back(similarity::MakeTokenSet(vocab.InternDocument(concatenated)));
    if (keys != nullptr && strategy == CandidateStrategy::kSortedNeighborhoodVerify) {
      keys->push_back(text::Normalize(concatenated));
    }
  }
  input.sources = dataset.table.sources;
  return input;
}

uint64_t CountCandidateMatches(const data::Dataset& dataset,
                               const std::vector<similarity::ScoredPair>& pairs) {
  uint64_t count = 0;
  for (const auto& p : pairs) {
    if (dataset.truth.IsMatch(p.a, p.b)) ++count;
  }
  return count;
}

namespace {

// The per-bucket top tier, then one global pack over every bucket's small
// components followed by every bucket's LCC parts (the header's order
// argument). Each bucket's subgraph is built over dense local ids in
// ascending global order, so its per-vertex arrays cost O(bucket records),
// not O(num_records); only one bucket's subgraph is ever resident.
Result<std::vector<hitgen::ClusterBasedHit>> DecomposeBuckets(
    const ShardedSpillStore<IndexedPair>& buckets, uint32_t cluster_size) {
  hitgen::TopTier all;
  std::vector<graph::Edge> edges;
  std::vector<uint32_t> local_to_global;
  // Back to global record ids (monotone, so ascending order is kept).
  const auto append_global = [&](std::vector<std::vector<uint32_t>>* from,
                                 std::vector<std::vector<uint32_t>>* to) {
    for (auto& comp : *from) {
      for (uint32_t& v : comp) v = local_to_global[v];
      to->push_back(std::move(comp));
    }
  };
  for (size_t b = 0; b < buckets.num_shards(); ++b) {
    edges.clear();
    CROWDER_RETURN_NOT_OK(buckets.Scan(b, [&](const std::vector<IndexedPair>& block) {
      for (const auto& ip : block) edges.push_back({ip.pair.a, ip.pair.b});
      return Status::OK();
    }));
    local_to_global.clear();
    local_to_global.reserve(edges.size() * 2);
    for (const graph::Edge& e : edges) {
      local_to_global.push_back(e.a);
      local_to_global.push_back(e.b);
    }
    std::sort(local_to_global.begin(), local_to_global.end());
    local_to_global.erase(std::unique(local_to_global.begin(), local_to_global.end()),
                          local_to_global.end());
    const auto local_of = [&](uint32_t global) {
      return static_cast<uint32_t>(
          std::lower_bound(local_to_global.begin(), local_to_global.end(), global) -
          local_to_global.begin());
    };
    for (graph::Edge& e : edges) e = {local_of(e.a), local_of(e.b)};

    CROWDER_ASSIGN_OR_RETURN(
        graph::PairGraph graph,
        graph::PairGraph::Create(static_cast<uint32_t>(local_to_global.size()), edges));
    hitgen::TopTier tier = hitgen::DecomposeTopTier(&graph, cluster_size);
    append_global(&tier.small, &all.small);
    append_global(&tier.parts, &all.parts);
  }
  std::vector<std::vector<uint32_t>> sccs = std::move(all.small);
  for (auto& part : all.parts) sccs.push_back(std::move(part));
  return hitgen::PackSccs(sccs, cluster_size, hitgen::PackingOptions{});
}

// One pass over the buckets, ascending, joins each pair against the HITs
// that ask it (hold both its records), so each range's shard replays in
// (bucket, global index) order. Order matters: the driver's FinishRound sums
// kappa and PrepareRepairRound re-posts deficient pairs in context order.
Result<std::unique_ptr<ShardedSpillStore<IndexedPair>>> BuildRangeStore(
    const ShardedSpillStore<IndexedPair>& buckets,
    const std::vector<hitgen::ClusterBasedHit>& hits, size_t hits_per_range,
    uint32_t num_records, uint64_t memory_budget_bytes) {
  // Per-record ascending list of the HITs that ask it: hits are scanned in
  // order and a HIT lists each record once.
  std::vector<std::vector<uint32_t>> record_hits(num_records);
  for (size_t h = 0; h < hits.size(); ++h) {
    for (uint32_t r : hits[h].records) record_hits[r].push_back(static_cast<uint32_t>(h));
  }
  const size_t num_ranges = (hits.size() + hits_per_range - 1) / hits_per_range;
  auto ranges = std::make_unique<ShardedSpillStore<IndexedPair>>(memory_budget_bytes);
  ranges->AddShards(num_ranges);
  for (size_t b = 0; b < buckets.num_shards(); ++b) {
    CROWDER_RETURN_NOT_OK(buckets.Scan(b, [&](const std::vector<IndexedPair>& block) {
      for (const auto& ip : block) {
        // The HITs asking the pair are a's HITs that b is in too. They come
        // in range order, so a pair is appended once per range however many
        // of the range's HITs ask it.
        const auto& hb = record_hits[ip.pair.b];
        size_t last_range = num_ranges;
        for (const uint32_t h : record_hits[ip.pair.a]) {
          const size_t range = h / hits_per_range;
          if (range != last_range && std::binary_search(hb.begin(), hb.end(), h)) {
            CROWDER_RETURN_NOT_OK(ranges->AppendRecord(range, ip));
            last_range = range;
          }
        }
      }
      return Status::OK();
    }));
  }
  CROWDER_RETURN_NOT_OK(ranges->Finish());
  return ranges;
}

}  // namespace

Result<ClusterBoundary> BuildClusterBoundary(const PairStream& stream, uint32_t num_records,
                                             uint64_t partition_capacity,
                                             uint32_t cluster_size,
                                             uint64_t memory_budget_bytes) {
  // Route every pair into its component's bucket, tagged with its global
  // sorted index (the vote table's pair-indexing contract).
  ShardedSpillStore<IndexedPair> buckets(memory_budget_bytes);
  {
    CROWDER_ASSIGN_OR_RETURN(const ComponentBucketPlan plan,
                             PlanComponentBuckets(stream, num_records, partition_capacity));
    buckets.AddShards(plan.num_buckets());
    uint64_t next_index = 0;
    CROWDER_RETURN_NOT_OK(stream.ScanSorted([&](const PairBlock& block) {
      for (const auto& p : block) {
        CROWDER_RETURN_NOT_OK(
            buckets.AppendRecord(plan.bucket_of_record[p.a], IndexedPair{next_index++, p}));
      }
      return Status::OK();
    }));
  }
  CROWDER_RETURN_NOT_OK(buckets.Finish());

  ClusterBoundary boundary;
  CROWDER_ASSIGN_OR_RETURN(boundary.hits, DecomposeBuckets(buckets, cluster_size));
  const uint64_t k = cluster_size;
  boundary.hits_per_range = static_cast<size_t>(
      std::max<uint64_t>(1, partition_capacity / std::max<uint64_t>(1, k * (k - 1) / 2)));
  WallTimer index_timer;
  CROWDER_ASSIGN_OR_RETURN(boundary.range_pairs,
                           BuildRangeStore(buckets, boundary.hits, boundary.hits_per_range,
                                           num_records, memory_budget_bytes));
  boundary.index_wall_ms = index_timer.ElapsedMillis();
  boundary.spilled_bytes = buckets.spilled_bytes() + boundary.range_pairs->spilled_bytes();
  return boundary;
}

}  // namespace internal

namespace {

// The one place the ranked score is assembled: the crowd posterior ranks
// first; the machine likelihood breaks ties among equal posteriors (e.g.
// all-yes unanimous pairs).
eval::RankedPair MakeRankedPair(const similarity::ScoredPair& pair, double probability,
                                const data::Dataset& dataset) {
  eval::RankedPair rp;
  rp.a = pair.a;
  rp.b = pair.b;
  rp.score = probability + 1e-7 * pair.score;
  rp.is_match = dataset.truth.IsMatch(pair.a, pair.b);
  return rp;
}

}  // namespace

Status RunMachinePass(WorkflowState* state) {
  const WorkflowConfig& config = *state->config;
  WorkflowResult& result = state->result;

  // Bounded blocks flow into state->stream, where the pairs stay for the
  // rest of the run: the crowd boundary consumes them partition by
  // partition and the final ranked pass re-scans them, so the full sorted
  // list is never materialized. The sorted scan reproduces MachinePass'
  // (a, b)-sorted output exactly.
  HybridWorkflow::MachineStreamStats stream_stats;
  if (config.num_shards >= 2) {
    // Sharded machine pass (src/shard/): N workers, one owned band each,
    // merged through the stream's k-way merge — byte-identical to the
    // single-process pass (the ownership lemma + merge-identity argument,
    // shard/plan.h).
    shard::ShardExecOptions exec;
    exec.num_shards = config.num_shards;
    exec.worker_path = config.shard_worker_path;
    CROWDER_ASSIGN_OR_RETURN(
        stream_stats,
        HybridWorkflow::MachinePassSharded(*state->dataset, config.measure,
                                           config.likelihood_threshold, exec, &state->stream,
                                           &result.shard_stats));
  } else {
    CROWDER_ASSIGN_OR_RETURN(
        stream_stats,
        HybridWorkflow::MachinePassStream(*state->dataset, config.measure,
                                          config.likelihood_threshold, config.num_threads,
                                          &state->stream, config.stream_block_records));
  }
  result.pipeline_stats.streamed_pairs = stream_stats.num_pairs;
  result.pipeline_stats.spilled_bytes = stream_stats.spilled_bytes;
  result.num_candidate_pairs = stream_stats.num_pairs;
  result.machine_recall = static_cast<double>(stream_stats.candidate_matches) /
                          static_cast<double>(result.total_matches);
  return Status::OK();
}

Status GenerateHits(WorkflowState* state) {
  const WorkflowConfig& config = *state->config;
  const uint64_t total = state->result.num_candidate_pairs;
  if (total == 0) {
    CROWDER_LOG(Warning) << "machine pass pruned every pair; crowd is idle";
    return Status::OK();
  }

  uint64_t capacity =
      ResolvePartitionCapacity(config.crowd_partition_pairs, config.memory_budget_bytes);
  if (config.hit_type == HitType::kPairBased) {
    // Pair-based HITs close every pairs_per_hit pairs of the sorted
    // sequence, so a partition boundary on a HIT boundary is invisible: the
    // driver packs each partition in the same walk that posts it to the
    // crowd — nothing to precompute.
    capacity = AlignedPartitionCapacity(capacity, config.pairs_per_hit);
  } else {
    CROWDER_ASSIGN_OR_RETURN(
        state->cluster,
        internal::BuildClusterBoundary(
            state->stream, static_cast<uint32_t>(state->dataset->table.num_records()), capacity,
            config.cluster_size, config.memory_budget_bytes));
    PipelineStats& stats = state->result.pipeline_stats;
    stats.boundary_spilled_bytes = state->cluster.spilled_bytes;
    stats.cluster_index_wall_ms = state->cluster.index_wall_ms;
  }
  state->partition_capacity = capacity;
  state->votes = std::make_unique<VoteShardStore>(config.memory_budget_bytes,
                                                  TileShardCounts(total, capacity));
  return Status::OK();
}

// Fit (Dawid-Skene) or nothing (majority), then one synchronized walk —
// vote shards advance in lockstep with the sorted stream, so each pair
// meets its probability under the global index both sides agree on.
// Shards tile the global pair order, so every floating-point accumulation
// happens in that order whatever the partitioning.
//
// GCC 12 flags the inlined destructor of the Result<DawidSkeneModel>
// temporary below with -Warray-bounds/-Wstringop-overflow false positives
// (the well-known shared_ptr _Sp_counted_base pattern, GCC PR105705); the
// suppression is scoped to this function and compiled out elsewhere.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif
Status Aggregate(WorkflowState* state) {
  const WorkflowConfig& config = *state->config;
  WorkflowResult& result = state->result;
  if (result.num_candidate_pairs == 0 || state->votes == nullptr) return Status::OK();
  VoteShardStore* votes = state->votes.get();
  // The revision path: banned workers' votes vanish at the shard boundary,
  // so every downstream decision is re-derived from the surviving votes —
  // while the store itself keeps the unfiltered audit truth. With no bans
  // the view is the identity and the bytes are the pre-filter ones.
  aggregate::FilteredVoteShardSource filtered(votes, state->banned_workers);

  // Unfitted, the model yields majority fractions.
  aggregate::DawidSkeneModel model;
  if (config.aggregation == AggregationMethod::kDawidSkene) {
    CROWDER_ASSIGN_OR_RETURN(model, aggregate::FitDawidSkeneSharded(&filtered, {}));
  }

  const data::Dataset& dataset = *state->dataset;
  result.ranked.reserve(static_cast<size_t>(result.num_candidate_pairs));
  std::vector<double> shard_probabilities;
  size_t next_shard = 0;
  uint64_t shard_start = 0;
  uint64_t shard_end = 0;  // exclusive; 0 forces the first load
  uint64_t index = 0;
  // Closure-inferred verdicts override voteless pairs as the walk passes
  // them: the map is ordered by global index, the walk ascends it.
  auto inferred = state->inferred_verdicts.cbegin();
  const auto inferred_end = state->inferred_verdicts.cend();
  CROWDER_RETURN_NOT_OK(state->stream.ScanSorted([&](const PairBlock& block) {
    for (const auto& p : block) {
      while (index >= shard_end) {
        CROWDER_RETURN_NOT_OK(aggregate::ShardMatchProbabilities(&filtered, next_shard, model,
                                                                 &shard_probabilities));
        shard_start = votes->shard_start(next_shard);
        shard_end = shard_start + votes->shard_pairs(next_shard);
        ++next_shard;
      }
      double probability = shard_probabilities[static_cast<size_t>(index - shard_start)];
      if (inferred != inferred_end && inferred->first == index) {
        probability = inferred->second ? 1.0 : 0.0;
        ++inferred;
      }
      result.ranked.push_back(MakeRankedPair(p, probability, dataset));
      ++index;
    }
    return Status::OK();
  }));
  eval::SortByScoreDesc(&result.ranked);
  if (!result.ranked.empty()) {
    CROWDER_ASSIGN_OR_RETURN(result.pr_curve, eval::PrCurve(result.ranked, result.total_matches));
  }
  return Status::OK();
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace core
}  // namespace crowder

#include "core/stages.h"

#include <algorithm>
#include <string>

#include "aggregate/agreement.h"
#include "aggregate/majority_vote.h"
#include "aggregate/partitioned.h"
#include "common/logging.h"
#include "graph/connected_components.h"
#include "graph/pair_graph.h"
#include "hitgen/packing.h"
#include "hitgen/pair_hit_generator.h"
#include "hitgen/two_tiered_generator.h"
#include "similarity/parallel_join.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace crowder {
namespace core {

namespace internal {

similarity::JoinInput BuildJoinInput(const data::Dataset& dataset, CandidateStrategy strategy,
                                     std::vector<std::string>* keys) {
  text::Tokenizer tokenizer;
  text::Vocabulary vocab;
  similarity::JoinInput input;
  input.sets.reserve(dataset.table.num_records());
  if (keys != nullptr && strategy == CandidateStrategy::kSortedNeighborhoodVerify) {
    keys->reserve(dataset.table.num_records());
  }
  for (uint32_t r = 0; r < dataset.table.num_records(); ++r) {
    const std::string concatenated = dataset.table.ConcatenatedRecord(r);
    input.sets.push_back(
        similarity::MakeTokenSet(vocab.InternDocument(tokenizer.Tokenize(concatenated))));
    if (keys != nullptr && strategy == CandidateStrategy::kSortedNeighborhoodVerify) {
      keys->push_back(tokenizer.normalizer().Normalize(concatenated));
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

Result<ClusterBoundary> BuildClusterBoundary(const PairStream& stream, uint32_t num_records,
                                             uint64_t partition_capacity,
                                             uint32_t cluster_size,
                                             uint64_t memory_budget_bytes) {
  ClusterBoundary boundary;
  CROWDER_ASSIGN_OR_RETURN(boundary.plan,
                           PlanComponentBuckets(stream, num_records, partition_capacity));
  const ComponentBucketPlan& plan = boundary.plan;

  // Route every pair into its component's bucket, tagged with its global
  // sorted index (the vote table's pair-indexing contract).
  auto store = std::make_unique<ShardedSpillStore<IndexedPair>>(memory_budget_bytes);
  store->AddShards(plan.num_buckets());
  uint64_t next_index = 0;
  CROWDER_RETURN_NOT_OK(stream.ScanSorted([&](const PairBlock& block) {
    for (const auto& p : block) {
      IndexedPair ip;
      ip.index = next_index++;
      ip.pair = p;
      CROWDER_RETURN_NOT_OK(store->AppendRecord(plan.bucket_of_record[p.a], ip));
    }
    return Status::OK();
  }));
  CROWDER_RETURN_NOT_OK(store->Finish());

  // Decompose bucket by bucket; only one bucket's subgraph is ever resident.
  // Each subgraph is built over dense local ids (ascending-global order), so
  // its per-vertex arrays cost O(bucket records), not O(num_records); the
  // renaming is strictly monotone, hence invisible to every ordering and
  // tie-break the decomposition makes (see the header contract).
  std::vector<std::vector<std::vector<uint32_t>>> small_per_bucket(plan.num_buckets());
  std::vector<std::vector<std::vector<uint32_t>>> parts_per_bucket(plan.num_buckets());
  std::vector<graph::Edge> edges;
  std::vector<uint32_t> local_to_global;
  for (size_t b = 0; b < plan.num_buckets(); ++b) {
    // One pass over the bucket collects its edges — the same payload the
    // bucket's subgraph holds anyway, so this does not change the bound.
    edges.clear();
    CROWDER_RETURN_NOT_OK(store->Scan(b, [&](const std::vector<IndexedPair>& block) {
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

    graph::PairGraphBuilder builder(static_cast<uint32_t>(local_to_global.size()));
    CROWDER_RETURN_NOT_OK(builder.Add(edges));
    CROWDER_ASSIGN_OR_RETURN(auto graph, builder.Build());
    graph::SplitComponents split =
        graph::SplitBySize(graph::ConnectedComponents(graph), cluster_size);
    small_per_bucket[b] = std::move(split.small);
    for (const auto& lcc : split.large) {
      auto lcc_parts =
          hitgen::PartitionLcc(&graph, lcc, cluster_size, hitgen::PartitionOptions{});
      for (auto& part : lcc_parts) parts_per_bucket[b].push_back(std::move(part));
    }
    // Coverage invariant: PartitionLcc consumed every LCC edge; small
    // components are packed whole below, so their edges are covered too.
    for (const auto& comp : small_per_bucket[b]) graph.RemoveEdgesCoveredBy(comp);
    if (graph.HasAliveEdges()) {
      return Status::Internal("bucket decomposition left uncovered edges");
    }
    // Back to global record ids (monotone, so ascending order is kept).
    for (auto& comp : small_per_bucket[b]) {
      for (uint32_t& v : comp) v = local_to_global[v];
    }
    for (auto& part : parts_per_bucket[b]) {
      for (uint32_t& v : part) v = local_to_global[v];
    }
  }

  // Bottom tier, once and globally, over the materialized generator's
  // exact scc order.
  std::vector<std::vector<uint32_t>> sccs;
  for (auto& bucket_smalls : small_per_bucket) {
    for (auto& comp : bucket_smalls) sccs.push_back(std::move(comp));
  }
  for (auto& bucket_parts : parts_per_bucket) {
    for (auto& part : bucket_parts) sccs.push_back(std::move(part));
  }
  CROWDER_ASSIGN_OR_RETURN(boundary.hits,
                           hitgen::PackSccs(sccs, cluster_size, hitgen::PackingOptions{}));

  boundary.spilled_bytes = store->spilled_bytes();
  boundary.bucket_pairs = std::move(store);
  return boundary;
}

}  // namespace internal

namespace {

bool IsStreaming(const WorkflowState& state) {
  return state.config->execution_mode == ExecutionMode::kStreaming;
}

// The one place the ranked score is assembled, shared by both execution
// modes (the byte-identity contract depends on the formula never
// diverging): the crowd posterior ranks first; the machine likelihood
// breaks ties among equal posteriors (e.g. all-yes unanimous pairs).
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

// ---------------------------------------------------------------------------
// MachinePassStage
// ---------------------------------------------------------------------------

Status MachinePassStage::Run(WorkflowState* state) {
  const WorkflowConfig& config = *state->config;
  WorkflowResult& result = state->result;

  uint64_t candidate_matches = 0;
  if (config.num_shards >= 2) {
    // Sharded machine pass (src/shard/): N workers, one owned band each,
    // merged through a PairStream's k-way merge — byte-identical to the
    // single-process pass (the ownership lemma + merge-identity argument,
    // shard/plan.h). Both execution modes route through the stream; the
    // materialized mode then rejoins its usual representation via
    // MaterializeSorted, which IS the sorted scan, so downstream stages see
    // the same bytes either way.
    shard::ShardExecOptions exec;
    exec.num_shards = config.num_shards;
    exec.worker_path = config.shard_worker_path;
    const bool streaming = IsStreaming(*state);
    PairStream local_stream(config.memory_budget_bytes);
    PairStream* stream = streaming ? &state->stream : &local_stream;
    CROWDER_ASSIGN_OR_RETURN(
        const auto stream_stats,
        HybridWorkflow::MachinePassSharded(*state->dataset, config.measure,
                                           config.likelihood_threshold, exec, stream,
                                           &result.shard_stats));
    result.num_candidate_pairs = stream_stats.num_pairs;
    candidate_matches = stream_stats.candidate_matches;
    if (streaming) {
      result.pipeline_stats.streamed_pairs = stream_stats.num_pairs;
      result.pipeline_stats.spilled_bytes = stream_stats.spilled_bytes;
    } else {
      CROWDER_ASSIGN_OR_RETURN(result.candidate_pairs, local_stream.MaterializeSorted());
    }
  } else if (IsStreaming(*state)) {
    // Stream bounded blocks through state->stream, where the pairs stay for
    // the rest of the run: the crowd boundary consumes them partition by
    // partition and the final ranked pass re-scans them, so the full sorted
    // list is never materialized. The sorted scan reproduces MachinePass'
    // (a, b)-sorted output exactly, so everything downstream sees the same
    // bytes as the materialized mode.
    CROWDER_ASSIGN_OR_RETURN(
        const auto stream_stats,
        HybridWorkflow::MachinePassStream(*state->dataset, config.measure,
                                          config.likelihood_threshold, config.num_threads,
                                          &state->stream, config.stream_block_records));
    result.pipeline_stats.streamed_pairs = stream_stats.num_pairs;
    result.pipeline_stats.spilled_bytes = stream_stats.spilled_bytes;
    result.num_candidate_pairs = stream_stats.num_pairs;
    candidate_matches = stream_stats.candidate_matches;  // counted in the sink
  } else {
    CROWDER_ASSIGN_OR_RETURN(
        result.candidate_pairs,
        HybridWorkflow::MachinePass(*state->dataset, config.measure,
                                    config.likelihood_threshold, config.candidate_strategy,
                                    config.num_threads));
    result.num_candidate_pairs = result.candidate_pairs.size();
    candidate_matches = internal::CountCandidateMatches(*state->dataset, result.candidate_pairs);
  }
  result.machine_recall =
      static_cast<double>(candidate_matches) / static_cast<double>(result.total_matches);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// HitGenStage
// ---------------------------------------------------------------------------

namespace {

// Feeds the materialized candidate pairs to `consume` as one edge batch
// (the incremental builders are batch-boundary-blind; unit tests pin that).
Status ForEachEdgeBatch(WorkflowState* state,
                        const std::function<Status(const std::vector<graph::Edge>&)>& consume) {
  const auto& pairs = state->result.candidate_pairs;
  std::vector<graph::Edge> edges;
  edges.reserve(pairs.size());
  for (const auto& p : pairs) edges.push_back({p.a, p.b});
  return consume(edges);
}

}  // namespace

Status HitGenStage::Run(WorkflowState* state) {
  const WorkflowConfig& config = *state->config;
  if (state->result.num_candidate_pairs == 0) {
    CROWDER_LOG(Warning) << "machine pass pruned every pair; crowd is idle";
    return Status::OK();
  }

  if (IsStreaming(*state)) {
    state->partition_capacity =
        ResolvePartitionCapacity(config.crowd_partition_pairs, config.memory_budget_bytes);
    if (config.hit_type == HitType::kPairBased) {
      // Pair-based HITs close every pairs_per_hit pairs of the sorted
      // sequence, so the driver packs them partition-by-partition in the
      // same walk that posts them to the crowd — nothing to precompute.
      return Status::OK();
    }
    CROWDER_ASSIGN_OR_RETURN(
        internal::ClusterBoundary boundary,
        internal::BuildClusterBoundary(
            state->stream, static_cast<uint32_t>(state->dataset->table.num_records()),
            state->partition_capacity, config.cluster_size, config.memory_budget_bytes));
    state->cluster_hits = std::move(boundary.hits);
    state->result.pipeline_stats.boundary_spilled_bytes = boundary.spilled_bytes;
    state->buckets = std::make_unique<ComponentBucketPlan>(std::move(boundary.plan));
    state->bucket_pairs = std::move(boundary.bucket_pairs);
    return Status::OK();
  }

  if (config.hit_type == HitType::kPairBased) {
    hitgen::PairHitPacker packer(config.pairs_per_hit);
    CROWDER_RETURN_NOT_OK(ForEachEdgeBatch(
        state, [&](const std::vector<graph::Edge>& batch) { return packer.Add(batch); }));
    CROWDER_ASSIGN_OR_RETURN(state->pair_hits, packer.Finish());
    return Status::OK();
  }

  graph::PairGraphBuilder builder(static_cast<uint32_t>(state->dataset->table.num_records()));
  CROWDER_RETURN_NOT_OK(ForEachEdgeBatch(
      state, [&](const std::vector<graph::Edge>& batch) { return builder.Add(batch); }));
  CROWDER_ASSIGN_OR_RETURN(auto graph, builder.Build());
  hitgen::ClusterGeneratorOptions gen_options;
  gen_options.seed = config.seed;
  std::unique_ptr<hitgen::ClusterHitGenerator> generator =
      hitgen::MakeClusterGenerator(config.cluster_algorithm, gen_options);
  CROWDER_ASSIGN_OR_RETURN(state->cluster_hits, generator->Generate(&graph, config.cluster_size));
  graph.Reset();
  CROWDER_RETURN_NOT_OK(
      hitgen::ValidateClusterCover(state->cluster_hits, graph, config.cluster_size));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// AggregateStage
// ---------------------------------------------------------------------------

namespace {

// Streaming aggregation: fit (Dawid-Skene) or nothing (majority), then one
// synchronized walk — vote shards advance in lockstep with the sorted
// stream, so each pair meets its probability under the global index both
// sides agree on. Each shard's probabilities come from the same posterior
// pass the materialized aggregators use, and shards tile the global pair
// order, so the ranked list is bitwise the materialized one even before
// the final sort.
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
Status RunStreamingAggregate(WorkflowState* state) {
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

}  // namespace

Status AggregateStage::Run(WorkflowState* state) {
  const WorkflowConfig& config = *state->config;
  WorkflowResult& result = state->result;

  if (IsStreaming(*state)) return RunStreamingAggregate(state);

  // The materialized revision path: decisions are derived from a filtered
  // copy of the vote table; the original stays in crowd_stats.votes as the
  // audit trail. Without bans the original table is used directly.
  const aggregate::VoteTable* table = &result.crowd_stats.votes;
  aggregate::VoteTable surviving;
  if (!state->banned_workers.empty()) {
    surviving = result.crowd_stats.votes;
    aggregate::RemoveVotesFrom(&surviving, state->banned_workers);
    table = &surviving;
  }

  std::vector<double> probabilities;
  if (config.aggregation == AggregationMethod::kMajorityVote) {
    probabilities = aggregate::MajorityVote(*table);
  } else {
    CROWDER_ASSIGN_OR_RETURN(auto ds, aggregate::RunDawidSkene(*table));
    probabilities = std::move(ds.match_probability);
  }
  // Closure-inferred verdicts (kInferenceOrdered) have no votes; their
  // probability is the inference, not "never judged".
  for (const auto& [global, verdict] : state->inferred_verdicts) {
    if (global < probabilities.size()) probabilities[global] = verdict ? 1.0 : 0.0;
  }

  result.ranked.reserve(result.candidate_pairs.size());
  for (size_t i = 0; i < result.candidate_pairs.size(); ++i) {
    result.ranked.push_back(
        MakeRankedPair(result.candidate_pairs[i], probabilities[i], *state->dataset));
  }
  eval::SortByScoreDesc(&result.ranked);
  if (!result.ranked.empty()) {
    CROWDER_ASSIGN_OR_RETURN(result.pr_curve,
                             eval::PrCurve(result.ranked, result.total_matches));
  }
  return Status::OK();
}

}  // namespace core
}  // namespace crowder

#include "core/workflow.h"

#include <memory>
#include <string>

#include "common/logging.h"
#include "core/driver.h"
#include "core/stages.h"
#include "crowd/async_backend.h"
#include "crowd/backend.h"
#include "crowd/crowd_model.h"
#include "similarity/parallel_join.h"

namespace crowder {
namespace core {

namespace {

// Runs `join` with a sink that counts each block's pairs and true matches
// and appends the block to `stream`, then seals the stream: the one
// epilogue of the streaming and the sharded machine pass.
template <typename Join>
Result<HybridWorkflow::MachineStreamStats> FeedStream(const data::Dataset& dataset,
                                                      PairStream* stream, const Join& join) {
  HybridWorkflow::MachineStreamStats stats;
  CROWDER_RETURN_NOT_OK(join([&](std::vector<similarity::ScoredPair>&& block) {
    stats.num_pairs += block.size();
    stats.candidate_matches += internal::CountCandidateMatches(dataset, block);
    return stream->Append(std::move(block));
  }));
  CROWDER_RETURN_NOT_OK(stream->Finish());
  stats.spilled_bytes = stream->spilled_bytes();
  return stats;
}

}  // namespace

Result<std::vector<similarity::ScoredPair>> HybridWorkflow::MachinePass(
    const data::Dataset& dataset, similarity::SetMeasure, double threshold, CandidateStrategy,
    uint32_t num_threads) {
  CROWDER_RETURN_NOT_OK(dataset.Validate());
  const similarity::JoinInput input = internal::BuildJoinInput(dataset);

  similarity::JoinOptions options;
  options.threshold = threshold;
  // On one thread this is the serial AllPairsJoin; at any count its output
  // is byte-identical (property-tested).
  similarity::ParallelJoinOptions exec_options;
  exec_options.num_threads = num_threads;
  return similarity::ParallelAllPairsJoin(input, options, exec_options);
}

Result<HybridWorkflow::MachineStreamStats> HybridWorkflow::MachinePassStream(
    const data::Dataset& dataset, double threshold, uint32_t num_threads, PairStream* stream,
    uint32_t block_records) {
  CROWDER_CHECK(stream != nullptr);
  CROWDER_RETURN_NOT_OK(dataset.Validate());
  similarity::JoinInput input = internal::BuildJoinInput(dataset);

  similarity::JoinOptions options;
  options.threshold = threshold;
  similarity::ParallelJoinOptions exec_options;
  exec_options.num_threads = num_threads;
  exec_options.block_records = block_records;

  return FeedStream(dataset, stream, [&](const similarity::PairSink& sink) {
    return similarity::BlockedAllPairsJoinStream(input, options, exec_options, sink);
  });
}

Result<HybridWorkflow::MachineStreamStats> HybridWorkflow::MachinePassSharded(
    const data::Dataset& dataset, similarity::SetMeasure, double threshold,
    const shard::ShardExecOptions& exec, PairStream* stream,
    shard::ShardRunStats* shard_run_stats) {
  CROWDER_CHECK(stream != nullptr);
  CROWDER_RETURN_NOT_OK(dataset.Validate());
  similarity::JoinInput input = internal::BuildJoinInput(dataset);

  similarity::JoinOptions options;
  options.threshold = threshold;

  // The coordinator hands over blocks that are internally (a, b)-sorted
  // with disjoint pair sets across shards (shard/coordinator.h) — exactly
  // the PairStream::Append contract, so the stream's k-way merge
  // reproduces the single-process SortPairs order byte-for-byte.
  return FeedStream(dataset, stream, [&](const similarity::PairSink& sink) {
    return shard::RunShardedJoin(input, options, exec, sink, shard_run_stats);
  });
}

Status ValidateWorkflowConfig(const WorkflowConfig& config) {
  if (!(config.likelihood_threshold >= 0.0 && config.likelihood_threshold <= 1.0)) {
    return Status::InvalidArgument("likelihood_threshold must be in [0,1]");
  }
  if (config.cluster_size < 2 || config.cluster_size > kMaxHitSize) {
    return Status::InvalidArgument("cluster_size must be in [2, " + std::to_string(kMaxHitSize) +
                                   "], got " + std::to_string(config.cluster_size));
  }
  if (config.pairs_per_hit < 1 || config.pairs_per_hit > kMaxHitSize) {
    return Status::InvalidArgument("pairs_per_hit must be in [1, " +
                                   std::to_string(kMaxHitSize) + "], got " +
                                   std::to_string(config.pairs_per_hit));
  }
  if (config.num_shards >= 2 && config.likelihood_threshold <= 0.0) {
    return Status::InvalidArgument(
        "the sharded machine pass (num_shards >= 2) requires a positive "
        "likelihood_threshold (prefix filtering degenerates at 0)");
  }
  const crowd::CrowdModel& crowd = config.crowd;
  if (crowd.assignments_per_hit < 1) {
    return Status::InvalidArgument("assignments_per_hit must be >= 1");
  }
  if (crowd.pool_size < crowd.assignments_per_hit) {
    return Status::InvalidArgument("worker pool smaller than assignments per HIT");
  }
  // Fractions, rates, and the adversarial knobs: one validator, shared with
  // the session layer, so both entry points name the offending field the
  // same way (crowd/crowd_model.h).
  CROWDER_RETURN_NOT_OK(crowd::ValidateCrowdModel(crowd));
  if (crowd.payment_per_assignment < 0.0 || crowd.fee_per_assignment < 0.0) {
    return Status::InvalidArgument("payments must be non-negative");
  }
  return Status::OK();
}

Result<WorkflowResult> HybridWorkflow::Run(const data::Dataset& dataset) const {
  // Validate before building the backend so configuration errors surface
  // with the same message (and precedence) they always had.
  CROWDER_RETURN_NOT_OK(ValidateWorkflowConfig(config_));
  crowd::SimulatedCrowdBackend::Options options;
  options.num_threads = config_.num_threads;
  CROWDER_ASSIGN_OR_RETURN(auto backend,
                           crowd::SimulatedCrowdBackend::Create(
                               config_.crowd, config_.seed, dataset.truth.entity_of, options));
  if (config_.async_crowd) {
    // Same vote set, hostile transport: deliveries arrive out of order and
    // in partial batches (crowd/async_backend.h).
    crowd::AsyncCrowdBackend async(backend.get(), config_.crowd, config_.seed);
    return Run(dataset, &async);
  }
  return Run(dataset, backend.get());
}

Result<WorkflowResult> HybridWorkflow::Run(const data::Dataset& dataset,
                                           crowd::CrowdBackend* backend) const {
  CROWDER_CHECK(backend != nullptr);
  // The driver loop — the one place the control flow of a workflow run
  // lives. Embedders who need to interleave their own logic between crowd
  // rounds write this loop themselves (core/driver.h); everything here is
  // reachable from that API.
  WorkflowDriver driver(config_);
  CROWDER_RETURN_NOT_OK(driver.Start(dataset));
  while (!driver.done()) {
    CROWDER_ASSIGN_OR_RETURN(const crowd::Ticket ticket, backend->Post(driver.PendingHits()));
    // An asynchronous backend hands the round back in partial deliveries;
    // keep polling (and submitting) until the completing one arrives.
    // Synchronous backends return complete = true on the first Poll.
    bool complete = false;
    while (!complete) {
      CROWDER_ASSIGN_OR_RETURN(crowd::VoteBatch votes, backend->Poll(ticket));
      complete = votes.complete;
      CROWDER_RETURN_NOT_OK(driver.SubmitVotes(std::move(votes)));
    }
    CROWDER_RETURN_NOT_OK(driver.Step());
  }
  CROWDER_ASSIGN_OR_RETURN(crowd::CrowdRunResult stats, backend->Finish());
  CROWDER_RETURN_NOT_OK(driver.SubmitCrowdStats(std::move(stats)));
  return driver.TakeResult();
}

}  // namespace core
}  // namespace crowder

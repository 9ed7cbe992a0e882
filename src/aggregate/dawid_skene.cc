#include "aggregate/dawid_skene.h"

#include "aggregate/partitioned.h"

namespace crowder {
namespace aggregate {

Result<DawidSkeneResult> RunDawidSkene(const VoteTable& votes,
                                       const DawidSkeneOptions& options) {
  // One implementation serves both shapes: the materialized entry point is
  // the sharded EM (aggregate/partitioned.h) run over the table flattened
  // into a single shard, followed by the one posterior pass. Bitwise-
  // identical to the pre-sharding loop — the golden workflow test pins it.
  InMemoryVoteShards shards(votes, {votes.size()});
  CROWDER_ASSIGN_OR_RETURN(DawidSkeneModel model, FitDawidSkeneSharded(&shards, options));

  DawidSkeneResult result;
  CROWDER_RETURN_NOT_OK(ShardMatchProbabilities(&shards, 0, model, &result.match_probability));
  result.workers = std::move(model.workers);
  result.class_prior = model.class_prior;
  result.iterations = model.iterations;
  result.converged = model.converged;
  return result;
}

}  // namespace aggregate
}  // namespace crowder

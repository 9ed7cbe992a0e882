#include "aggregate/dawid_skene.h"

#include "aggregate/partitioned.h"

namespace crowder {
namespace aggregate {

Result<DawidSkeneResult> RunDawidSkene(const VoteTable& votes) {
  // One implementation serves both shapes: the table is loaded into the
  // vote table the workflow aggregates (aggregate/partitioned.h) as a
  // single shard, in pair-then-cast order, then fitted and read back with
  // the one posterior pass.
  VoteShardStore store(/*memory_budget_bytes=*/0, {votes.size()});
  for (size_t i = 0; i < votes.size(); ++i) {
    for (const Vote& v : votes[i]) CROWDER_RETURN_NOT_OK(store.Append(i, v));
  }
  CROWDER_RETURN_NOT_OK(store.Finish());
  CROWDER_ASSIGN_OR_RETURN(DawidSkeneModel model, FitDawidSkeneSharded(store));

  DawidSkeneResult result;
  CROWDER_RETURN_NOT_OK(ShardMatchProbabilities(store, 0, model, &result.match_probability));
  result.workers = std::move(model.workers);
  result.class_prior = model.class_prior;
  result.iterations = model.iterations;
  result.converged = model.converged;
  return result;
}

}  // namespace aggregate
}  // namespace crowder

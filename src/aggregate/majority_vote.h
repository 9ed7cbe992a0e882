/// \file
/// \brief Majority voting: the simple aggregation baseline the paper
/// mentions ("average the three responses") before adopting Dawid-Skene EM.
#ifndef CROWDER_AGGREGATE_MAJORITY_VOTE_H_
#define CROWDER_AGGREGATE_MAJORITY_VOTE_H_

#include <vector>

#include "aggregate/votes.h"

namespace crowder {
namespace aggregate {

/// \brief Per-pair match probability = fraction of yes votes
/// (`MajorityMatchProbability` applied to every pair). Pairs with no votes
/// get `kUnjudgedMatchProbability` (never asked means not confirmed).
///
/// Because each pair is scored independently, the sharded form
/// (`ShardMatchProbabilities` under an unfitted model,
/// aggregate/partitioned.h) is bitwise-identical to this one at any
/// partitioning of the table.
std::vector<double> MajorityVote(const VoteTable& votes);

}  // namespace aggregate
}  // namespace crowder

#endif  // CROWDER_AGGREGATE_MAJORITY_VOTE_H_

/// \file
/// \brief The vote data model shared between the crowd simulator (producer)
/// and the answer aggregators (consumers): per candidate pair, the yes/no
/// verdicts of the individual workers who judged it.
///
/// **The pair-indexing contract.** A VoteTable carries no pair identities:
/// `votes[i]` is "every vote on pair *i*", where the index space is defined
/// by the producer — the workflow uses the position of each pair in the
/// (a, b)-sorted surviving pair list P. Every aggregator output
/// (`MajorityVote`, `DawidSkeneResult::match_probability`) is aligned to the
/// same index space. This implicit alignment is what made the vote table
/// hard to shard: slicing P into partitions re-bases the indices, so a
/// partitioned table must remember, per shard, which contiguous index range
/// it covers. `VoteShardStore` (aggregate/partitioned.h), the spill-backed
/// table every aggregation reads, does; a VoteTable is the in-memory form
/// tests, benches and `RunDawidSkene` load into it.
#ifndef CROWDER_AGGREGATE_VOTES_H_
#define CROWDER_AGGREGATE_VOTES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/// \brief Root namespace of the CrowdER reproduction.
namespace crowder {
/// \brief Answer aggregation: the vote data model, majority voting, and
/// Dawid-Skene EM — materialized and partition-aware.
namespace aggregate {

/// \brief One worker's verdict on one candidate pair.
struct Vote {
  /// Pool id of the worker who cast the vote (answer provenance; feeds the
  /// per-worker confusion estimates of Dawid-Skene).
  uint32_t worker_id = 0;
  /// The verdict: true = "these two records are the same entity".
  bool says_match = false;
};

/// \brief `votes[i]` holds every vote cast on pair *i*, in cast order (pair
/// indexing is defined by the caller; the workflow uses the order of the
/// surviving pair list — see the file comment for the contract).
using VoteTable = std::vector<std::vector<Vote>>;

/// \brief The match probability assigned to a pair no worker ever judged:
/// never asked means never confirmed, so the pair ranks below every judged
/// pair rather than defaulting to "maybe".
///
/// This single constant is the one place that policy lives; both aggregators
/// (majority vote and Dawid-Skene, materialized and sharded) route their
/// voteless-pair handling through it / `MajorityMatchProbability`, which
/// previously existed as duplicated skip logic in each aggregator.
inline constexpr double kUnjudgedMatchProbability = 0.0;

/// \brief Fraction of yes votes on one pair — the majority-vote probability
/// and the Dawid-Skene E-step initialization. Voteless pairs get
/// `kUnjudgedMatchProbability`.
inline double MajorityMatchProbability(const std::vector<Vote>& pair_votes) {
  if (pair_votes.empty()) return kUnjudgedMatchProbability;
  std::size_t yes = 0;
  for (const Vote& v : pair_votes) yes += v.says_match ? 1 : 0;
  return static_cast<double>(yes) / static_cast<double>(pair_votes.size());
}

}  // namespace aggregate
}  // namespace crowder

#endif  // CROWDER_AGGREGATE_VOTES_H_

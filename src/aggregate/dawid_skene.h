/// \file
/// \brief Binary Dawid-Skene EM (ref [9] of the paper; Dawid & Skene 1979),
/// the aggregation CrowdER uses to combine the three assignments of each HIT
/// (§7.3): it estimates each worker's sensitivity (P(yes | match)) and
/// specificity (P(no | non-match)) jointly with the posterior match
/// probability of every pair, which makes it robust to spammers whose votes
/// carry no information.
///
/// `RunDawidSkene` is the in-memory entry point: it loads its table into a
/// one-shard `VoteShardStore` and runs the partition-aware EM of
/// aggregate/partitioned.h, the one fitting loop for in-memory tables and
/// spilled shards alike.
#ifndef CROWDER_AGGREGATE_DAWID_SKENE_H_
#define CROWDER_AGGREGATE_DAWID_SKENE_H_

#include <unordered_map>
#include <vector>

#include "aggregate/votes.h"
#include "common/result.h"

namespace crowder {
namespace aggregate {

/// \brief Hard cap on EM iterations.
inline constexpr int kDawidSkeneMaxIterations = 100;
/// \brief Convergence: the largest absolute change of any posterior between
/// iterations must fall below this.
inline constexpr double kDawidSkeneTolerance = 1e-6;
/// \brief Pseudo-count smoothing the class prior (prevents collapse to 0/1
/// on small inputs).
inline constexpr double kDawidSkeneSmoothing = 1.0;
/// \brief Worker-quality prior as pseudo-votes: each worker starts with
/// `kDawidSkenePriorCorrect` correct and `kDawidSkenePriorIncorrect`
/// incorrect phantom votes (a Beta prior with mean 0.8). The asymmetric
/// prior anchors the label semantics — without it, EM on few pairs/votes
/// can converge to the globally flipped solution, which is
/// likelihood-equivalent.
inline constexpr double kDawidSkenePriorCorrect = 1.6;
/// \brief See `kDawidSkenePriorCorrect`.
inline constexpr double kDawidSkenePriorIncorrect = 0.4;

/// \brief Per-worker confusion estimates.
struct WorkerQuality {
  double sensitivity = 0.5;  ///< P(votes yes | pair is a match)
  double specificity = 0.5;  ///< P(votes no  | pair is a non-match)
  uint32_t num_votes = 0;    ///< votes this worker cast across all pairs
};

/// \brief Everything one EM run produces.
struct DawidSkeneResult {
  /// Posterior match probability per pair, aligned with the input table
  /// (`kUnjudgedMatchProbability` for pairs with no votes).
  std::vector<double> match_probability;
  /// Per-worker confusion estimates, keyed by worker id.
  std::unordered_map<uint32_t, WorkerQuality> workers;
  double class_prior = 0.5;  ///< estimated P(match)
  int iterations = 0;        ///< EM iterations executed
  bool converged = false;    ///< posterior change fell below the tolerance
};

/// \brief Runs EM over an in-memory vote table. Pairs with empty vote
/// lists are skipped (they keep `kUnjudgedMatchProbability`).
Result<DawidSkeneResult> RunDawidSkene(const VoteTable& votes);

}  // namespace aggregate
}  // namespace crowder

#endif  // CROWDER_AGGREGATE_DAWID_SKENE_H_

/// \file
/// \brief Binary Dawid-Skene EM (ref [9] of the paper; Dawid & Skene 1979),
/// the aggregation CrowdER uses to combine the three assignments of each HIT
/// (§7.3): it estimates each worker's sensitivity (P(yes | match)) and
/// specificity (P(no | non-match)) jointly with the posterior match
/// probability of every pair, which makes it robust to spammers whose votes
/// carry no information.
///
/// `RunDawidSkene` is the in-memory entry point; it is implemented as a
/// single-shard run of the partition-aware EM in aggregate/partitioned.h,
/// the one fitting loop for in-memory tables and spilled shards alike.
#ifndef CROWDER_AGGREGATE_DAWID_SKENE_H_
#define CROWDER_AGGREGATE_DAWID_SKENE_H_

#include <unordered_map>
#include <vector>

#include "aggregate/votes.h"
#include "common/result.h"

namespace crowder {
namespace aggregate {

/// \brief Tuning knobs of the EM fit. The defaults are what the workflow
/// uses; every field is validated by RunDawidSkene / FitDawidSkeneSharded.
struct DawidSkeneOptions {
  /// Hard cap on EM iterations.
  int max_iterations = 100;
  /// Convergence: max absolute change of any posterior between iterations.
  double tolerance = 1e-6;
  /// Pseudo-count smoothing the class prior (prevents collapse to 0/1 on
  /// small inputs).
  double smoothing = 1.0;
  /// Worker-quality prior as pseudo-votes: each worker starts with
  /// `prior_correct` correct and `prior_incorrect` incorrect phantom votes
  /// (a Beta prior with mean prior_correct / (prior_correct +
  /// prior_incorrect)). An asymmetric prior (> 0.5 mean) anchors the label
  /// semantics — without it, EM on few pairs/votes can converge to the
  /// globally flipped solution, which is likelihood-equivalent.
  double prior_correct = 1.6;
  /// See `prior_correct`.
  double prior_incorrect = 0.4;
};

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

/// \brief Runs EM over a materialized vote table. Pairs with empty vote
/// lists are skipped (they keep `kUnjudgedMatchProbability`).
Result<DawidSkeneResult> RunDawidSkene(const VoteTable& votes,
                                       const DawidSkeneOptions& options = {});

}  // namespace aggregate
}  // namespace crowder

#endif  // CROWDER_AGGREGATE_DAWID_SKENE_H_

// Similarity join: find all record pairs whose token-set similarity is at or
// above a threshold. This is CrowdER's machine pass ("simjoin", §7.1); the
// paper's footnote 1 and refs [2,5,26] note that indexing avoids the
// all-pairs comparison, which the AllPairs prefix-filtering join implements.
#ifndef CROWDER_SIMILARITY_SIMILARITY_JOIN_H_
#define CROWDER_SIMILARITY_SIMILARITY_JOIN_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "similarity/set_similarity.h"

namespace crowder {
namespace similarity {

/// \brief A candidate record pair with its machine likelihood.
/// Invariant: a < b (record indices into the join input).
struct ScoredPair {
  uint32_t a = 0;
  uint32_t b = 0;
  double score = 0.0;

  friend bool operator==(const ScoredPair& x, const ScoredPair& y) {
    return x.a == y.a && x.b == y.b;
  }
};

/// \brief Sorts by (a, b); used to canonicalize join outputs for comparison.
void SortPairs(std::vector<ScoredPair>* pairs);

/// \brief Input to a join: one token set per record, plus optional source
/// labels. When `sources` is non-empty (same length as `sets`), only pairs
/// with *different* labels are emitted — the Abt-Buy Product dataset joins
/// records across two web sources and never within one source. When empty,
/// the join is a self-join over all records.
struct JoinInput {
  std::vector<TokenSet> sets;
  std::vector<int> sources;
};

/// \brief Join configuration.
struct JoinOptions {
  /// Jaccard threshold a pair must reach.
  double threshold = 0.3;
};

/// \brief Observability counters a join fills when handed one (purely
/// additive — never part of the result or the byte-identity contract). The
/// join benches report pair_verifications/s so kernel-level regressions show
/// up without an end-to-end run.
///
/// At a positive threshold the prefix-filtering joins (serial, parallel and
/// blocked) count the same values at any thread count, chunk size and block
/// size, and every run of them, and of serve::IncrementalIndex, satisfies
///   emitted pairs <= pair_verifications, and
///   pair_verifications + candidates_pruned <= postings_scanned
/// (each candidate is reached through at least one scanned posting, and is
/// either pruned, rejected as same-source, or verified — at most once).
struct JoinStats {
  /// Candidate pairs that reached the verify step (an intersection was
  /// computed, fully or until the threshold-aware early exit).
  uint64_t pair_verifications = 0;
  /// Index postings read by the probes (prefix-filtering joins only).
  uint64_t postings_scanned = 0;
  /// Distinct candidates dropped before verification because their size or
  /// positional overlap bound cannot reach the required overlap
  /// (prefix-filtering joins only). The batch joins skip partners below the
  /// minimum size as whole runs of postings, never scanned, so they are not
  /// counted here; the incremental index counts them.
  uint64_t candidates_pruned = 0;
};

/// \brief Reference implementation: compares every admissible pair.
/// O(n^2) — used for small inputs, tests, and the ablation baseline.
/// Contract shared with AllPairsJoin: at a positive threshold a pair of two
/// empty token sets is never emitted (no matching evidence), even though
/// Jaccard scores it 1.0.
Result<std::vector<ScoredPair>> NaiveJoin(const JoinInput& input, const JoinOptions& options,
                                          JoinStats* stats = nullptr);

/// \brief AllPairs-style prefix-filtering join with an inverted index over
/// rare-token prefixes, a size filter and PPJoin's positional filter (see
/// internal::PrefixIndex). Produces exactly the same pairs as NaiveJoin
/// (property-tested), typically orders of magnitude faster at realistic
/// thresholds. This is ParallelAllPairsJoin (parallel_join.h) on one thread.
Result<std::vector<ScoredPair>> AllPairsJoin(const JoinInput& input, const JoinOptions& options,
                                             JoinStats* stats = nullptr);

/// \brief Validates a JoinInput/JoinOptions combination (threshold in [0,1],
/// NaN rejected; source labels consistent). Shared by every join.
Status ValidateJoin(const JoinInput& input, const JoinOptions& options);

}  // namespace similarity
}  // namespace crowder

#endif  // CROWDER_SIMILARITY_SIMILARITY_JOIN_H_

// Token blocking: a coarse candidate generator (CrowdER footnote 1 cites
// blocking [7]). Two records become a candidate pair if they share at least
// one blocking key (a token). Candidates still need verification; blocking
// only bounds which pairs are examined.
#ifndef CROWDER_SIMILARITY_BLOCKING_H_
#define CROWDER_SIMILARITY_BLOCKING_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace similarity {

/// \brief Blocking configuration.
struct BlockingOptions {
  /// Blocks larger than this are discarded as non-discriminative (a common
  /// guard against stop-word-like tokens exploding the candidate set).
  /// 0 disables the guard.
  size_t max_block_size = 200;
};

/// \brief A pair of record ids (a < b) produced by blocking, pre-verification.
struct CandidatePair {
  uint32_t a = 0;
  uint32_t b = 0;
};

/// \brief Generates candidate pairs that co-occur in at least one token block.
/// Respects JoinInput::sources (cross-source joins never pair same-source
/// records). Output is deduplicated and sorted by (a, b).
Result<std::vector<CandidatePair>> TokenBlocking(const JoinInput& input,
                                                 const BlockingOptions& options);

/// \brief Verifies blocked candidates against a similarity threshold,
/// producing the same ScoredPair format as the joins. Combining
/// TokenBlocking + VerifyCandidates is the "blocking" join strategy in the
/// ABL-3 ablation.
Result<std::vector<ScoredPair>> VerifyCandidates(const JoinInput& input,
                                                 const std::vector<CandidatePair>& candidates,
                                                 const JoinOptions& options);

}  // namespace similarity
}  // namespace crowder

#endif  // CROWDER_SIMILARITY_BLOCKING_H_

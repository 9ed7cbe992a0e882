// Parallel machine pass: multi-threaded and blocked/streaming variants of
// the AllPairs prefix-filtering join (similarity_join.h). Both are exact —
// they produce byte-identical post-SortPairs output to the serial
// AllPairsJoin (and hence NaiveJoin) at any thread count, chunk size, and
// block size; the join-equivalence property test sweeps this contract.
//
// How parallelism preserves the serial semantics: every variant builds the
// one prefix index of internal::PrefixIndex (join_internal.h) up front —
// token rank -> by_size positions, ascending — and probes position ranges
// against it read-only, each probe accepting partners only at *earlier*
// positions. Which pairs a position finds, and its counters, therefore do
// not depend on how positions are split into chunks, blocks or threads.
// Scores come from the same internal::ProbeStep, per-chunk outputs are
// concatenated in chunk order, and the final SortPairs canonicalizes:
// determinism by construction, not by locking. The serial AllPairsJoin is
// ParallelAllPairsJoin on one thread.
#ifndef CROWDER_SIMILARITY_PARALLEL_JOIN_H_
#define CROWDER_SIMILARITY_PARALLEL_JOIN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace similarity {

/// \brief Execution knobs for the parallel joins.
struct ParallelJoinOptions {
  /// Total threads cooperating on the join, including the calling thread
  /// (0 = exec::HardwareConcurrency(), which honors CROWDER_THREADS;
  /// 1 = no worker threads — the serial algorithm on the caller).
  uint32_t num_threads = 0;
  /// Probe records per scheduling chunk. Small chunks balance skewed record
  /// sizes at slightly higher scheduling cost. 0 = default.
  uint32_t chunk_size = 256;
  /// BlockedAllPairsJoinStream only: probe records per block — the
  /// granularity at which pairs are materialized/emitted. 0 = default.
  uint32_t block_records = 4096;
};

/// \brief Sharded parallel AllPairs join: workers probe disjoint record
/// ranges over a shared read-only inverted index. Same output as
/// AllPairsJoin, byte-identical after the included SortPairs.
Result<std::vector<ScoredPair>> ParallelAllPairsJoin(
    const JoinInput& input, const JoinOptions& options,
    const ParallelJoinOptions& exec_options = {}, JoinStats* stats = nullptr);

/// \brief Receives each block's pairs as they are produced. Blocks arrive in
/// size-order position, each block internally sorted by (a, b); the global
/// concatenation is NOT (a, b)-sorted — canonicalize with SortPairs if
/// needed. Returning a non-OK status aborts the join with that status.
using PairSink = std::function<Status(std::vector<ScoredPair>&&)>;

/// \brief Blocked/streaming join driver: processes probe records in blocks
/// of `block_records`, probing each block in parallel and emitting its pairs
/// to `sink` before moving on — peak pair memory is one block's output, not
/// the whole result. The union of all emitted blocks equals the serial join
/// output exactly.
Status BlockedAllPairsJoinStream(const JoinInput& input, const JoinOptions& options,
                                 const ParallelJoinOptions& exec_options,
                                 const PairSink& sink, JoinStats* stats = nullptr);

}  // namespace similarity
}  // namespace crowder

#endif  // CROWDER_SIMILARITY_PARALLEL_JOIN_H_

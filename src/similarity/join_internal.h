// Internal prefix-filtering machinery of the size-ordered AllPairs joins:
// the serial, parallel and blocked joins (similarity_join.cc,
// parallel_join.cc) and the shard worker (shard/worker.cc) all run one
// kernel, PrefixIndex. Not part of the public similarity API — include only
// from similarity/*.cc, shard/*.cc and tests.
#ifndef CROWDER_SIMILARITY_JOIN_INTERNAL_H_
#define CROWDER_SIMILARITY_JOIN_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "similarity/similarity_join.h"

namespace crowder {
namespace similarity {
namespace internal {

/// \brief Everything the AllPairs family precomputes before pairing:
/// rare-first re-ranked token lists (in one flat arena) laid out in the
/// size-ordered processing sequence. Pure function of the input; building
/// it twice yields identical contents.
///
/// The token arena: every record's rank-sorted token list lives back-to-back
/// in one contiguous `uint32_t` buffer, in by_size position order and
/// addressed by (offset, length) spans — probe sets are cache-dense and feed
/// the SIMD intersection kernels directly, and the kernel reads a posting's
/// record size without going through its record id.
struct JoinPlan {
  /// Tokens re-expressed as global rare-first ranks; the record at by_size
  /// position p occupies arena[token_offset[p], token_offset[p + 1]), sorted
  /// ascending.
  std::vector<uint32_t> arena;
  /// n + 1 prefix offsets into `arena` (token_offset[n] == arena.size()).
  std::vector<size_t> token_offset;
  /// Record ids in non-decreasing size order (stable, so equal sizes keep id
  /// order) — the canonical processing order of every variant; by_size[p] is
  /// the record at position p.
  std::vector<uint32_t> by_size;
  /// Number of distinct token ranks.
  size_t num_ranks = 0;

  /// \brief The rank-sorted token list of the record at position `pos`.
  TokenSpan ranked_at(size_t pos) const {
    const size_t begin = token_offset[pos];
    return TokenSpan(arena.data() + begin, token_offset[pos + 1] - begin);
  }

  /// \brief Token-set size of the record at position `pos` (re-ranking
  /// permutes tokens, never sizes).
  size_t size_at(size_t pos) const { return token_offset[pos + 1] - token_offset[pos]; }
};

/// \brief Builds the plan.
JoinPlan BuildJoinPlan(const JoinInput& input);

/// \brief The per-record probe bounds, a pure function of (measure,
/// threshold, size); threshold must be > 0. Shared by the batch kernel, the
/// shard planner's replica bands and the incremental index.
///
/// The bounds are order-symmetric: the prefix-filtering lemma they encode
/// ("two qualifying records must share a token within their first
/// size - alpha + 1 tokens under any one total token order") does not
/// depend on which record is probing and which is indexed, only on both
/// sides using prefixes at least this long under the *same* token order.
/// That is what lets serve::IncrementalIndex insert records in arrival
/// order and still be exact: it probes and indexes this full prefix.
struct PrefixBounds {
  /// Tokens of the record's rank-sorted list that are probed (0 for an
  /// empty record, which never pairs at a positive threshold).
  size_t prefix_len = 0;
  /// Minimum size an admissible partner can have.
  size_t min_partner = 1;
};

/// \brief Computes the bounds for one record of `size` tokens. See
/// PrefixBounds for the contract.
PrefixBounds ComputePrefixBounds(SetMeasure measure, double threshold, size_t size);

/// \brief Shared admissibility rule: every pair qualifies in a self-join;
/// with source labels, only cross-source pairs do. One definition for every
/// join variant so the exact-equivalence contract can't silently fork.
inline bool Admissible(const JoinInput& input, uint32_t a, uint32_t b) {
  return input.sources.empty() || input.sources[a] != input.sources[b];
}

/// \brief The verify step for a caller that already holds the exact bound:
/// `required` must equal RequiredOverlapExact(measure, a.size(), b.size(),
/// threshold), which makes this call bitwise interchangeable with
/// VerifyPair (below).
inline bool VerifyPairRequired(SetMeasure measure, size_t required, TokenSpan a, TokenSpan b,
                               double* sim) {
  const size_t overlap = OverlapSizeAtLeast(a, b, required);
  if (overlap < required) return false;
  *sim = SimilarityFromOverlap(measure, a.size(), b.size(), overlap);
  return true;
}

/// \brief The shared threshold-aware verify step: decides `sim(a, b) >=
/// threshold` and, when it holds, leaves the score in `*sim` — while
/// allowing the intersection to exit early on unpromising pairs.
///
/// Bitwise equal to "intersect fully, compute the measure, compare":
///  * RequiredOverlapExact makes `overlap >= required ⟺ sim >= threshold`
///    exact in the measure's own double arithmetic, so the early exit can
///    only fire on pairs the full computation would reject;
///  * when the pair qualifies, OverlapSizeAtLeast has returned the exact
///    overlap, and SimilarityFromOverlap replays the measure's exact double
///    operations on it.
/// Spans may be the *ranked* arena lists rather than the original token
/// sets: the rank map is a bijection, so the overlap is the same number,
/// the sizes are the same, and every measure is a function of (sizes,
/// overlap) only — the score is the original sets' score, bitwise.
inline bool VerifyPair(SetMeasure measure, double threshold, TokenSpan a, TokenSpan b,
                       double* sim) {
  return VerifyPairRequired(measure, RequiredOverlapExact(measure, a.size(), b.size(), threshold),
                            a, b, sim);
}

/// \brief The probe/index kernel of every size-ordered join, with the
/// PPJoin filters (Xiao et al., WWW 2008) inside.
///
/// The index is a flat CSR table: one offset per token rank into one array
/// of 8-byte postings (by_size position, token offset), each rank's run in
/// ascending position order. A record at position p probes with its first
/// ComputePrefixBounds().prefix_len tokens and reads, in each probed run,
/// only the postings at positions in [lo, p), where lo is the first
/// position whose size reaches its minimum partner size (the size filter:
/// positions are in size order, so the rejected sizes are one leading run,
/// skipped by binary search and never scanned).
///
/// Two exact filters cut candidates before any intersection:
///  * Indexing prefix. A record y of size s indexes only its first
///    s - RequiredOverlapExact(s, s) + 1 tokens. Every record that probes y
///    comes later in by_size order, so it is no smaller than y, and the
///    overlap it needs is at least RequiredOverlapExact(s, s). The rarest
///    shared token then lies within both this prefix and the prober's.
///  * Positional bound. When token x[i] = y[j] is found, every shared token
///    ranked before it was found already (both prefixes cover everything
///    before i and j), so the overlap is at most
///    count + 1 + min(|x| - i - 1, |y| - j - 1). A candidate whose bound
///    falls below RequiredOverlapExact(|x|, |y|) is dropped for good.
/// Surviving candidates are verified on the full spans (VerifyPairRequired,
/// with the bound the positional filter already looked up), so the emitted
/// pairs and scores are exactly the unfiltered join's.
///
/// Probe is const and may run concurrently on disjoint position ranges.
/// Each pair is considered once, from its later endpoint, so the pairs and
/// counters a position produces do not depend on how positions are split
/// into calls, chunks, blocks or shards.
class PrefixIndex {
 public:
  /// One indexed token: the record at by_size position `position` holds
  /// this rank at index `offset` of its ranked list.
  struct Posting {
    uint32_t position;
    uint32_t offset;
  };

  /// \brief Indexes every position of `plan`. `input`, `options` and `plan`
  /// must outlive the index; options.threshold must be > 0.
  PrefixIndex(const JoinInput& input, const JoinOptions& options, const JoinPlan& plan);

  /// \brief Probes the records at by_size positions [begin, end) against
  /// every earlier position. Appends the qualifying pairs as record ids
  /// (a < b), in probe order, to `*out`, and adds the probes' counters to
  /// `*stats` (may be null).
  void Probe(size_t begin, size_t end, std::vector<ScoredPair>* out, JoinStats* stats) const;

 private:
  const JoinInput& input_;
  const JoinOptions& options_;
  const JoinPlan& plan_;
  /// num_ranks + 1 offsets: rank r's postings are postings_[start_[r],
  /// start_[r + 1]).
  std::vector<size_t> start_;
  std::vector<Posting> postings_;
};

}  // namespace internal
}  // namespace similarity
}  // namespace crowder

#endif  // CROWDER_SIMILARITY_JOIN_INTERNAL_H_

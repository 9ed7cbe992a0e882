// Internal prefix-filtering machinery of the AllPairs joins: the serial,
// parallel and blocked joins (similarity_join.cc, parallel_join.cc) and the
// shard worker (shard/worker.cc) run one batch kernel, PrefixIndex, and it
// and the service's incremental index (serve/incremental_index.cc) run one
// probe-and-verify step, ProbeStep. Not part of the public similarity API —
// include only from similarity/*.cc, shard/*.cc, serve/*.cc (and
// serve/incremental_index.h, whose postings are this header's Posting) and
// tests.
#ifndef CROWDER_SIMILARITY_JOIN_INTERNAL_H_
#define CROWDER_SIMILARITY_JOIN_INTERNAL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
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

/// \brief The one token order of every prefix index: rank[t] is token t's
/// position when tokens are sorted by (freq[t], t), so rare tokens come
/// first and prefixes are selective. BuildJoinPlan ranks by frequency in
/// its input; the incremental index re-ranks by the document frequencies
/// it has seen.
std::vector<uint32_t> RankRareFirst(const std::vector<uint32_t>& freq);

/// \brief The one processing order of the size-ordered joins: record ids in
/// non-decreasing set size, equal sizes in id order (JoinPlan::by_size, and
/// the shard planner's bands).
std::vector<uint32_t> SizeOrder(const std::vector<TokenSet>& sets);

/// \brief The per-record probe bounds, a pure function of (threshold,
/// size); threshold must be > 0. Shared by the batch kernel, the
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
PrefixBounds ComputePrefixBounds(double threshold, size_t size);

/// \brief Shared admissibility rule: every pair qualifies in a self-join;
/// with source labels, only cross-source pairs do. One definition for every
/// join variant so the exact-equivalence contract can't silently fork.
inline bool Admissible(const JoinInput& input, uint32_t a, uint32_t b) {
  return input.sources.empty() || input.sources[a] != input.sources[b];
}

/// \brief The verify step for a caller that already holds the exact bound:
/// `required` must equal RequiredOverlapExact(a.size(), b.size(), threshold),
/// which makes this call bitwise interchangeable with VerifyPair (below).
inline bool VerifyPairRequired(size_t required, TokenSpan a, TokenSpan b, double* sim) {
  const size_t overlap = OverlapSizeAtLeast(a, b, required);
  if (overlap < required) return false;
  *sim = SimilarityFromOverlap(a.size(), b.size(), overlap);
  return true;
}

/// \brief The shared threshold-aware verify step: decides `Jaccard(a, b) >=
/// threshold` and, when it holds, leaves the score in `*sim` — while
/// allowing the intersection to exit early on unpromising pairs.
///
/// Bitwise equal to "intersect fully, compute Jaccard, compare":
///  * RequiredOverlapExact makes `overlap >= required ⟺ sim >= threshold`
///    exact in Jaccard's own double arithmetic, so the early exit can only
///    fire on pairs the full computation would reject;
///  * when the pair qualifies, OverlapSizeAtLeast has returned the exact
///    overlap, and SimilarityFromOverlap replays Jaccard's exact double
///    operations on it.
/// Spans may be the *ranked* arena lists rather than the original token
/// sets: the rank map is a bijection, so the overlap is the same number,
/// the sizes are the same, and Jaccard is a function of (sizes, overlap)
/// only — the score is the original sets' score, bitwise.
inline bool VerifyPair(double threshold, TokenSpan a, TokenSpan b, double* sim) {
  return VerifyPairRequired(RequiredOverlapExact(a.size(), b.size(), threshold), a, b, sim);
}

/// \brief One indexed token: the record at `position` holds this rank at
/// index `offset` of its rank-sorted list. A position is a by_size position
/// in PrefixIndex and a record id in the incremental index.
struct Posting {
  uint32_t position;
  uint32_t offset;
};

/// \brief The postings of one rank, in ascending position order.
struct PostingRun {
  const Posting* begin;
  const Posting* end;
};

/// \brief The one probe-and-verify step of every prefix index, with
/// PPJoin's positional filter (Xiao et al., WWW 2008) inside. Finds the
/// partners of one prober `x` (rank-sorted) among the indexed positions in
/// [lo, limit), passing each qualifying one to `emit(position, score)`, and
/// adds the step's counters to `*stats` (may be null).
///
/// Every indexed position is below `num_positions`, which sizes the
/// per-thread scratch. `x` probes with its first `prefix_len` ranks;
/// `run_of(rank)` gives a rank's PostingRun, `span_of(position)` the
/// rank-sorted list of the record there (the same rank order as `x`), and
/// `admissible(position)` whether the pair may be emitted at all. `required[s]` must equal
/// RequiredOverlapExact(|x|, s, threshold) for the size s of every indexed
/// record the runs can reach.
///
/// Every posting below `lo` is skipped by binary search, unread. A
/// candidate is kept on its first posting only if it is admissible. When
/// token x[i] = y[j] is found, every shared token ranked before it was
/// found already (both prefixes cover everything before i and j), so the
/// overlap is at most count + 1 + min(|x| - i - 1, |y| - j - 1); a
/// candidate whose bound falls below required[|y|] is dropped for good. A
/// size no partner can have has required[s] = min(|x|, s) + 1, which the
/// bound drops at its first posting. The survivors are verified on their
/// full spans with VerifyPairRequired, so the step emits exactly the
/// unfiltered join's partners and scores.
template <typename RunOf, typename SpanOf, typename AdmissibleAt, typename Emit>
void ProbeStep(TokenSpan x, size_t prefix_len, uint32_t lo, uint32_t limit,
               size_t num_positions, const std::vector<size_t>& required, const RunOf& run_of, const SpanOf& span_of,
               const AdmissibleAt& admissible, const Emit& emit, JoinStats* stats) {
  // Marks a candidate that can no longer qualify (pruned or inadmissible);
  // real counts never reach it (they are at most |x|).
  constexpr uint32_t kDropped = std::numeric_limits<uint32_t>::max();
  // Per-thread scratch, reused across steps (and joins) instead of being
  // reallocated and zeroed per step. count[q] is the overlap found so far
  // with the candidate at position q (0 = not a candidate yet, kDropped =
  // out). Invariant: every entry is 0 between steps, because each step
  // resets exactly the entries it set; resize only ever appends zeros.
  thread_local std::vector<uint32_t> count;
  thread_local std::vector<uint32_t> candidates;
  if (count.size() < num_positions) count.resize(num_positions, 0);
  candidates.clear();
  uint64_t scanned = 0;
  uint64_t pruned = 0;
  uint64_t verifications = 0;
  for (size_t i = 0; i < prefix_len; ++i) {
    const PostingRun run = run_of(x[i]);
    const Posting* it = run.begin;
    if (it != run.end && it->position < lo) {
      it = std::partition_point(it, run.end, [lo](const Posting& q) { return q.position < lo; });
    }
    const size_t x_rest = x.size() - i - 1;
    for (; it != run.end && it->position < limit; ++it) {
      ++scanned;
      uint32_t& c = count[it->position];
      if (c == kDropped) continue;
      if (c == 0) {
        candidates.push_back(it->position);
        if (!admissible(it->position)) {
          c = kDropped;
          continue;
        }
      }
      const size_t y_size = span_of(it->position).size();
      const size_t y_rest = y_size - it->offset - 1;
      if (c + 1 + std::min(x_rest, y_rest) < required[y_size]) {
        c = kDropped;
        ++pruned;
        continue;
      }
      ++c;
    }
  }
  for (uint32_t q : candidates) {
    const bool live = count[q] != kDropped;
    count[q] = 0;
    if (!live) continue;
    ++verifications;
    double sim;
    const TokenSpan y = span_of(q);
    if (VerifyPairRequired(required[y.size()], x, y, &sim)) emit(q, sim);
  }
  if (stats != nullptr) {
    stats->postings_scanned += scanned;
    stats->candidates_pruned += pruned;
    stats->pair_verifications += verifications;
  }
}

/// \brief The batch kernel of every size-ordered join: ProbeStep plus what
/// only size order allows.
///
/// The index is a flat CSR table: one offset per token rank into one array
/// of Postings (by_size position, token offset), each rank's run in
/// ascending position order. The record at position p runs ProbeStep over
/// positions [lo, p) with its first ComputePrefixBounds().prefix_len
/// tokens, where lo is the first position whose size reaches its minimum
/// partner size (the size filter: positions are in size order, so the
/// rejected sizes are one leading run of every posting list, skipped by
/// binary search and never scanned). Because sizes only grow along the
/// positions, the bounds, lo and the `required` table are recomputed only
/// when the size changes.
///
/// Indexing prefix: a record y of size s indexes only its first
/// s - RequiredOverlapExact(s, s) + 1 tokens. Every record that probes y
/// comes later in by_size order, so it is no smaller than y, and the
/// overlap it needs is at least RequiredOverlapExact(s, s). The rarest
/// shared token then lies within both this prefix and the prober's.
///
/// Probe is const and may run concurrently on disjoint position ranges.
/// Each pair is considered once, from its later endpoint, so the pairs and
/// counters a position produces do not depend on how positions are split
/// into calls, chunks, blocks or shards.
class PrefixIndex {
 public:
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

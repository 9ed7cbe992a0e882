// The incremental half of the AllPairs prefix-filtering join: an inverted
// prefix index that grows one record at a time, so a resident service can
// answer "which existing records might match this new one?" without ever
// re-joining the corpus.
//
// Correctness rests on the order-symmetric form of the prefix-filtering
// lemma (similarity/join_internal.h): under ANY one fixed total order on
// tokens, two records whose similarity reaches the threshold must share a
// token inside their first `size - alpha + 1` order-sorted tokens, where
// alpha is the required-overlap bound evaluated at the worst-case admissible
// partner size. The batch join's size-ordered processing is an efficiency
// choice, not a correctness requirement — so an index that (a) probes the
// new record's prefix against the postings of every earlier record's prefix
// and (b) then indexes the new record's own prefix discovers every
// qualifying pair exactly once, at the insert of the pair's later record.
//
// The probe is the batch kernel's own step (internal::ProbeStep): postings
// carry each token's offset in its record's rank-sorted list, so PPJoin's
// positional bound, which is symmetric in the two records, prunes in
// arrival order too, against a `required` table that covers every size
// indexed so far. What needs size order stays with the batch kernel: the
// binary-searched size filter and the shorter indexing prefix (a later
// prober may be smaller than the record it meets here).
//
// The token order is an internal degree of freedom: the rank map is a
// bijection, so overlaps, sizes and scores are those of the original token
// sets, bitwise. The index exploits that: it starts with token-id order and
// periodically re-ranks rare-first by observed document frequency — the
// ordering that makes prefixes selective — re-sorting every record's list
// and rebuilding its postings under the new order. The determinism bridge
// test (incremental_index_test) pins the resulting guarantee: inserting a
// dataset record-by-record yields exactly the batch AllPairsJoin candidate
// set, post-SortPairs, bitwise.
#ifndef CROWDER_SERVE_INCREMENTAL_INDEX_H_
#define CROWDER_SERVE_INCREMENTAL_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "similarity/join_internal.h"
#include "similarity/similarity_join.h"

namespace crowder {
/// \brief The online-serving layer: incremental candidate generation,
/// streaming resolution, epoch snapshots, and the resident service.
namespace serve {

/// \brief Construction knobs for IncrementalIndex.
struct IncrementalIndexOptions {
  /// Candidate (Jaccard) threshold; must be > 0 — the zero-threshold join
  /// degenerates to all-pairs, which has no prefix structure to index (and
  /// no batch fast path either).
  double threshold = 0.3;
  /// When true, only cross-source pairs are emitted (the Product two-source
  /// rule); Insert's `source` labels are compared. When false, sources are
  /// ignored and every pair is admissible (self-join rule).
  bool cross_source_only = false;
  /// Corpus size at which the first rare-first re-rank happens; each rebuild
  /// doubles the trigger. Rebuilds touch every indexed record, so doubling
  /// keeps total rebuild work O(n log n) while prefixes stay selective.
  /// Candidate output is bitwise independent of this knob.
  size_t rebuild_base = 1024;
};

/// \brief Grow-only prefix-filter index over token sets.
///
/// Not thread-safe: the service serializes Insert with its state lock.
/// Memory is O(total tokens): the rank-sorted sets plus the current prefix
/// postings.
class IncrementalIndex {
 public:
  /// \brief Validates the options (threshold in (0, 1]).
  static Result<IncrementalIndex> Create(const IncrementalIndexOptions& options);

  /// \brief Adds the next record (id = num_records() before the call) and
  /// returns every new candidate pair it forms with the existing corpus —
  /// admissible pairs whose similarity over the original token sets reaches
  /// the threshold — sorted by (a, b) with a < b = the new record's id.
  /// `set` must be canonical (sorted + deduplicated; use MakeTokenSet);
  /// `source` is the record's source label (ignored unless
  /// cross_source_only). The probe's counters are added to `*stats` (may be
  /// null); they obey the JoinStats laws.
  Result<std::vector<similarity::ScoredPair>> Insert(similarity::TokenSet set, int source = 0,
                                                     similarity::JoinStats* stats = nullptr);

  /// \brief Records inserted so far.
  uint32_t num_records() const { return static_cast<uint32_t>(offset_.size() - 1); }

  /// \brief Rare-first re-ranks + postings rebuilds performed (observability;
  /// exercised directly by tests via small rebuild_base).
  size_t num_rebuilds() const { return num_rebuilds_; }

 private:
  explicit IncrementalIndex(const IncrementalIndexOptions& options) : options_(options) {}

  /// Rank of `token` under the current order, assigning fresh trailing ranks
  /// to tokens never seen before. A fresh token ranks above every existing
  /// one, so no indexed record's list, or posting offset, changes until the
  /// next rebuild moves genuinely rare tokens forward.
  uint32_t RankOf(text::TokenId token);

  /// Re-ranks all tokens rare-first by document frequency (ties by token id),
  /// re-sorts every record's list and rebuilds its postings.
  void Rebuild();

  /// Indexes record `id`'s probe prefix under the current order.
  void IndexRecord(uint32_t id);

  /// Record `id`'s rank-sorted token list.
  similarity::TokenSpan ranked(uint32_t id) const {
    return similarity::TokenSpan(arena_.data() + offset_[id], offset_[id + 1] - offset_[id]);
  }

  IncrementalIndexOptions options_;
  /// Every record's tokens as current ranks, sorted, back-to-back in one
  /// flat arena: record id occupies arena_[offset_[id], offset_[id + 1]).
  /// One span serves both the probe and the verify, as in JoinPlan.
  std::vector<uint32_t> arena_;
  /// num_records() + 1 prefix offsets into arena_.
  std::vector<size_t> offset_{0};
  std::vector<int> sources_;
  /// rank_[token] = position in the current total token order.
  std::vector<uint32_t> rank_;
  /// doc_freq_[token] = records containing the token (drives rebuilds).
  std::vector<uint32_t> doc_freq_;
  /// postings_[rank] = (record id, offset in its list) for every record
  /// whose probe prefix holds the rank, in ascending id order.
  std::vector<std::vector<similarity::internal::Posting>> postings_;
  /// required_[s] = RequiredOverlapExact(|x|, s) for the record x being
  /// inserted and every size s up to max_size_.
  std::vector<size_t> required_;
  size_t max_size_ = 0;
  size_t next_rebuild_at_ = 0;
  size_t num_rebuilds_ = 0;
};

}  // namespace serve
}  // namespace crowder

#endif  // CROWDER_SERVE_INCREMENTAL_INDEX_H_

#include "serve/incremental_index.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "similarity/join_internal.h"

namespace crowder {
namespace serve {

using similarity::internal::ComputePrefixBounds;

Result<IncrementalIndex> IncrementalIndex::Create(const IncrementalIndexOptions& options) {
  if (!(options.threshold > 0.0 && options.threshold <= 1.0)) {
    return Status::InvalidArgument("incremental index threshold must be in (0,1], got " +
                                   std::to_string(options.threshold));
  }
  IncrementalIndex index(options);
  index.next_rebuild_at_ =
      options.rebuild_base == 0 ? std::numeric_limits<size_t>::max() : options.rebuild_base;
  return index;
}

uint32_t IncrementalIndex::RankOf(text::TokenId token) {
  if (token >= rank_.size()) {
    // Fresh tokens take trailing ranks in id order: appending never disturbs
    // the ranks existing postings were built under, so index and probe stay
    // consistent; the next rebuild moves genuinely rare tokens forward.
    const size_t old = rank_.size();
    rank_.resize(token + 1);
    doc_freq_.resize(token + 1, 0);
    for (size_t t = old; t < rank_.size(); ++t) rank_[t] = static_cast<uint32_t>(t);
    postings_.resize(rank_.size());
  }
  return rank_[token];
}

Result<std::vector<similarity::ScoredPair>> IncrementalIndex::Insert(similarity::TokenSet set,
                                                                     int source) {
  if (!std::is_sorted(set.begin(), set.end()) ||
      std::adjacent_find(set.begin(), set.end()) != set.end()) {
    return Status::InvalidArgument("token sets must be sorted and deduplicated (MakeTokenSet)");
  }
  const uint32_t id = num_records();

  // Register tokens (rank entries + document frequencies) before probing so
  // RankOf is total over this record's tokens.
  for (text::TokenId tok : set) {
    RankOf(tok);
    ++doc_freq_[tok];
  }

  const similarity::internal::PrefixBounds bounds =
      ComputePrefixBounds(options_.threshold, set.size());

  // Probe: the new record's prefix under the current order against the
  // postings every earlier record indexed under the same order. By the
  // order-symmetric lemma this surfaces every qualifying partner.
  std::vector<uint32_t> ranks;
  ranks.reserve(set.size());
  for (text::TokenId tok : set) ranks.push_back(rank_[tok]);
  std::sort(ranks.begin(), ranks.end());

  seen_.resize(num_records(), 0);
  std::vector<uint32_t> candidates;
  for (size_t p = 0; p < bounds.prefix_len; ++p) {
    for (uint32_t other : postings_[ranks[p]]) {
      if (seen_[other]) continue;
      seen_[other] = 1;
      candidates.push_back(other);
    }
  }

  std::vector<similarity::ScoredPair> out;
  for (uint32_t other : candidates) {
    seen_[other] = 0;
    const similarity::TokenSpan other_set = this->set(other);
    if (other_set.size() < bounds.min_partner) continue;
    if (options_.cross_source_only && sources_[other] == source) continue;
    // Threshold-aware verify over the original token sets — bitwise the same
    // accept set and scores as Jaccard >= threshold, with the early exit on
    // pairs that cannot reach it (similarity/join_internal.h).
    double sim;
    if (similarity::internal::VerifyPair(options_.threshold, other_set, set, &sim)) {
      out.push_back({other, id, sim});
    }
  }
  similarity::SortPairs(&out);

  arena_.insert(arena_.end(), set.begin(), set.end());
  set_offset_.push_back(arena_.size());
  sources_.push_back(source);
  IndexRecord(id);

  if (num_records() >= next_rebuild_at_) {
    Rebuild();
    next_rebuild_at_ *= 2;
  }
  return out;
}

void IncrementalIndex::IndexRecord(uint32_t id) {
  const similarity::TokenSpan set = this->set(id);
  const size_t prefix_len = ComputePrefixBounds(options_.threshold, set.size()).prefix_len;
  if (prefix_len == 0) return;
  std::vector<uint32_t> ranks;
  ranks.reserve(set.size());
  for (text::TokenId tok : set) ranks.push_back(rank_[tok]);
  // Only the prefix_len smallest ranks are indexed; a partial sort suffices.
  std::partial_sort(ranks.begin(), ranks.begin() + static_cast<ptrdiff_t>(prefix_len),
                    ranks.end());
  for (size_t p = 0; p < prefix_len; ++p) postings_[ranks[p]].push_back(id);
}

void IncrementalIndex::Rebuild() {
  // Rare-first order over every token seen so far (ties by id), mirroring
  // the batch plan's ordering so rebuilt prefixes are just as selective.
  std::vector<text::TokenId> order(rank_.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](text::TokenId x, text::TokenId y) {
    return doc_freq_[x] != doc_freq_[y] ? doc_freq_[x] < doc_freq_[y] : x < y;
  });
  for (uint32_t pos = 0; pos < order.size(); ++pos) rank_[order[pos]] = pos;

  postings_.assign(rank_.size(), {});
  for (uint32_t id = 0; id < num_records(); ++id) IndexRecord(id);
  ++num_rebuilds_;
}

}  // namespace serve
}  // namespace crowder

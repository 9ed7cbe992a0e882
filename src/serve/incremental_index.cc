#include "serve/incremental_index.h"

#include <algorithm>
#include <limits>

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
                                                                     int source,
                                                                     similarity::JoinStats* stats) {
  if (!std::is_sorted(set.begin(), set.end()) ||
      std::adjacent_find(set.begin(), set.end()) != set.end()) {
    return Status::InvalidArgument("token sets must be sorted and deduplicated (MakeTokenSet)");
  }
  const uint32_t id = num_records();

  // Register the tokens (rank entries + document frequencies) and store the
  // record as its rank-sorted list.
  const size_t begin = arena_.size();
  for (text::TokenId tok : set) {
    arena_.push_back(RankOf(tok));
    ++doc_freq_[tok];
  }
  std::sort(arena_.begin() + static_cast<ptrdiff_t>(begin), arena_.end());
  offset_.push_back(arena_.size());
  sources_.push_back(source);
  max_size_ = std::max(max_size_, set.size());

  // Probe: the new record's prefix under the current order against the
  // postings every earlier record indexed under the same order. By the
  // order-symmetric lemma this surfaces every qualifying partner.
  const double t = options_.threshold;
  const similarity::TokenSpan x = ranked(id);
  // required_[s] = RequiredOverlapExact(|x|, s). Past |x|, a full overlap
  // scores |x| / s, which only falls as s grows: once a size is out of
  // reach, so is every larger one, and its bound is |x| + 1. So one
  // outlier record does not make every later insert evaluate the bound at
  // each size up to its own.
  required_.assign(max_size_ + 1, x.size() + 1);
  for (size_t s = 0; s <= max_size_ && (s <= x.size() || required_[s - 1] <= x.size()); ++s) {
    required_[s] = similarity::RequiredOverlapExact(x.size(), s, t);
  }
  std::vector<similarity::ScoredPair> out;
  similarity::internal::ProbeStep(
      x, ComputePrefixBounds(t, x.size()).prefix_len, 0, id, id, required_,
      [this](uint32_t rank) {
        const std::vector<similarity::internal::Posting>& run = postings_[rank];
        return similarity::internal::PostingRun{run.data(), run.data() + run.size()};
      },
      [this](uint32_t q) { return ranked(q); },
      [&](uint32_t q) { return !options_.cross_source_only || sources_[q] != source; },
      [&](uint32_t q, double sim) { out.push_back({q, id, sim}); }, stats);
  similarity::SortPairs(&out);

  IndexRecord(id);
  if (num_records() >= next_rebuild_at_) {
    Rebuild();
    next_rebuild_at_ *= 2;
  }
  return out;
}

void IncrementalIndex::IndexRecord(uint32_t id) {
  const similarity::TokenSpan x = ranked(id);
  const size_t prefix_len = ComputePrefixBounds(options_.threshold, x.size()).prefix_len;
  for (uint32_t k = 0; k < prefix_len; ++k) postings_[x[k]].push_back({id, k});
}

void IncrementalIndex::Rebuild() {
  // The batch plan's rare-first ranking over every token seen so far, so
  // rebuilt prefixes are just as selective. Mapping each list to the new
  // ranks and re-sorting it re-derives every posting offset.
  const std::vector<uint32_t> rank = similarity::internal::RankRareFirst(doc_freq_);
  std::vector<uint32_t> remap(rank.size());
  for (size_t tok = 0; tok < rank.size(); ++tok) remap[rank_[tok]] = rank[tok];
  rank_ = rank;
  for (uint32_t& r : arena_) r = remap[r];
  postings_.assign(rank_.size(), {});
  for (uint32_t id = 0; id < num_records(); ++id) {
    std::sort(arena_.begin() + static_cast<ptrdiff_t>(offset_[id]),
              arena_.begin() + static_cast<ptrdiff_t>(offset_[id + 1]));
    IndexRecord(id);
  }
  ++num_rebuilds_;
}

}  // namespace serve
}  // namespace crowder

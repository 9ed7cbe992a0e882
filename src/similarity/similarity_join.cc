#include "similarity/similarity_join.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "similarity/join_internal.h"
#include "similarity/parallel_join.h"

namespace crowder {
namespace similarity {

void SortPairs(std::vector<ScoredPair>* pairs) {
  std::sort(pairs->begin(), pairs->end(), [](const ScoredPair& x, const ScoredPair& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
}

Status ValidateJoin(const JoinInput& input, const JoinOptions& options) {
  if (!(options.threshold >= 0.0 && options.threshold <= 1.0)) {
    return Status::InvalidArgument("join threshold must be in [0,1], got " +
                                   std::to_string(options.threshold));
  }
  if (!input.sources.empty() && input.sources.size() != input.sets.size()) {
    return Status::InvalidArgument("sources size (" + std::to_string(input.sources.size()) +
                                   ") must match sets size (" +
                                   std::to_string(input.sets.size()) + ")");
  }
  for (const auto& set : input.sets) {
    if (!std::is_sorted(set.begin(), set.end())) {
      return Status::InvalidArgument("token sets must be sorted (use MakeTokenSet)");
    }
    if (std::adjacent_find(set.begin(), set.end()) != set.end()) {
      return Status::InvalidArgument("token sets must be deduplicated (use MakeTokenSet)");
    }
  }
  return Status::OK();
}

using internal::Admissible;

Result<std::vector<ScoredPair>> NaiveJoin(const JoinInput& input, const JoinOptions& options,
                                          JoinStats* stats) {
  CROWDER_RETURN_NOT_OK(ValidateJoin(input, options));
  std::vector<ScoredPair> out;
  const uint32_t n = static_cast<uint32_t>(input.sets.size());
  uint64_t verifications = 0;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (!Admissible(input, i, j)) continue;
      // Two empty sets score 1.0 under Jaccard, but an empty record
      // carries no matching evidence: at a positive threshold such pairs are
      // not emitted (AllPairsJoin and blocking agree on this contract).
      if (options.threshold > 0.0 && input.sets[i].empty() && input.sets[j].empty()) continue;
      ++verifications;
      const double sim = Jaccard(input.sets[i], input.sets[j]);
      if (sim >= options.threshold) out.push_back({i, j, sim});
    }
  }
  if (stats != nullptr) stats->pair_verifications += verifications;
  SortPairs(&out);
  return out;
}

namespace internal {

PrefixBounds ComputePrefixBounds(double threshold, size_t size) {
  PrefixBounds bounds;
  if (size == 0) return bounds;  // empty records never pair at threshold > 0
  // Overlap lower bound against the *worst-case* admissible partner: any y
  // with sim(x,y) >= t has |y| >= MinCompatibleSize, and the required overlap
  // is monotone in |y|, so evaluating it at the minimum partner size is a
  // valid bound for all partners. A pair meeting the bound must share a token
  // within the first size - alpha + 1 tokens of each side (prefix-filtering
  // lemma).
  bounds.min_partner = std::max<size_t>(1, MinCompatibleSize(size, threshold));
  const size_t alpha =
      std::max<size_t>(1, MinRequiredOverlap(size, bounds.min_partner, threshold));
  bounds.prefix_len = std::min(size, size >= alpha ? size - alpha + 1 : size);
  return bounds;
}

JoinPlan BuildJoinPlan(const JoinInput& input) {
  const uint32_t n = static_cast<uint32_t>(input.sets.size());
  JoinPlan plan;

  // 1. Compute per-token frequency within this input; rank tokens
  //    rarest-first (ties by id). Rare-first prefixes produce the fewest
  //    candidates.
  text::TokenId max_token = 0;
  for (const auto& set : input.sets) {
    for (text::TokenId tok : set) max_token = std::max(max_token, tok);
  }
  std::vector<uint32_t> freq(static_cast<size_t>(max_token) + 1, 0);
  for (const auto& set : input.sets) {
    for (text::TokenId tok : set) ++freq[tok];
  }
  // rank[token] = position in global rare-first order.
  std::vector<text::TokenId> order(freq.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](text::TokenId x, text::TokenId y) {
    return freq[x] != freq[y] ? freq[x] < freq[y] : x < y;
  });
  std::vector<uint32_t> rank(freq.size());
  for (uint32_t pos = 0; pos < order.size(); ++pos) rank[order[pos]] = pos;
  plan.num_ranks = order.size();

  // 2. Process records in non-decreasing size order so that indexed partners
  //    are never larger than the probing record.
  plan.by_size.resize(n);
  std::iota(plan.by_size.begin(), plan.by_size.end(), 0);
  std::stable_sort(plan.by_size.begin(), plan.by_size.end(), [&](uint32_t x, uint32_t y) {
    return input.sets[x].size() < input.sets[y].size();
  });

  // 3. One flat arena in position order: sizes are known up front, so
  //    prefix-sum the offsets, fill each span, and sort it in place.
  plan.token_offset.resize(n + 1, 0);
  for (uint32_t p = 0; p < n; ++p) {
    plan.token_offset[p + 1] = plan.token_offset[p] + input.sets[plan.by_size[p]].size();
  }
  plan.arena.resize(plan.token_offset[n]);
  for (uint32_t p = 0; p < n; ++p) {
    uint32_t* span = plan.arena.data() + plan.token_offset[p];
    size_t k = 0;
    for (text::TokenId tok : input.sets[plan.by_size[p]]) span[k++] = rank[tok];
    std::sort(span, span + k);
  }
  return plan;
}

namespace {

// Marks a candidate of the current probe that can no longer qualify (pruned
// or same-source); real counts never reach it (they are at most |x|).
constexpr uint32_t kDropped = std::numeric_limits<uint32_t>::max();

// Tokens a record of `size` tokens indexes: enough for every partner that
// is no smaller than the record itself (see PrefixIndex).
size_t IndexPrefixLength(double threshold, size_t size) {
  if (size == 0) return 0;
  return size - std::min(size, RequiredOverlapExact(size, size, threshold)) + 1;
}

}  // namespace

PrefixIndex::PrefixIndex(const JoinInput& input, const JoinOptions& options,
                         const JoinPlan& plan)
    : input_(input), options_(options), plan_(plan) {
  const size_t n = plan.by_size.size();
  // Sizes are non-decreasing along the positions, so the prefix length is
  // recomputed only when the size changes.
  const auto for_each_posting = [&](const auto& visit) {
    size_t size = 0;
    size_t len = 0;
    for (size_t p = 0; p < n; ++p) {
      if (plan.size_at(p) != size) {
        size = plan.size_at(p);
        len = IndexPrefixLength(options.threshold, size);
      }
      const TokenSpan tokens = plan.ranked_at(p);
      for (size_t k = 0; k < len; ++k) visit(tokens[k], p, k);
    }
  };
  // Counting-sort the postings into CSR form: count each rank's run,
  // prefix-sum the counts into run starts, then place each posting at its
  // run's next free slot, walking positions in ascending order.
  start_.assign(plan.num_ranks + 1, 0);
  for_each_posting([&](uint32_t rank, size_t, size_t) { ++start_[rank + 1]; });
  for (size_t r = 0; r < plan.num_ranks; ++r) start_[r + 1] += start_[r];
  postings_.resize(start_[plan.num_ranks]);
  for_each_posting([&](uint32_t rank, size_t p, size_t k) {
    postings_[start_[rank]++] = {static_cast<uint32_t>(p), static_cast<uint32_t>(k)};
  });
  // Each start_[r] has advanced to its run's end, which is run r + 1's start.
  for (size_t r = plan.num_ranks; r > 0; --r) start_[r] = start_[r - 1];
  start_[0] = 0;
}

void PrefixIndex::Probe(size_t begin, size_t end, std::vector<ScoredPair>* out,
                        JoinStats* stats) const {
  const double t = options_.threshold;
  // Per-thread scratch, reused across calls (and joins) instead of being
  // reallocated and zeroed per call — with small chunks on large inputs
  // the memset would dominate. count[q] is the overlap found so far with
  // the candidate at position q (0 = not a candidate yet, kDropped = out).
  // Invariant: every entry is 0 between probes, because each probe resets
  // exactly the entries it set; resize only ever appends zeros.
  thread_local std::vector<uint32_t> count;
  thread_local std::vector<uint32_t> candidates;
  // required[s]: RequiredOverlapExact(|x|, s) for the partner sizes s the
  // current probe size admits.
  thread_local std::vector<size_t> required;
  if (count.size() < plan_.by_size.size()) count.resize(plan_.by_size.size(), 0);

  uint64_t scanned = 0;
  uint64_t pruned = 0;
  uint64_t verifications = 0;
  size_t size = 0;      // probe size the bounds below were computed for
  size_t lo = 0;        // first position whose size reaches min_partner
  PrefixBounds bounds;
  for (size_t p = begin; p < end; ++p) {
    const TokenSpan x = plan_.ranked_at(p);
    if (x.empty()) continue;  // never pairs at a positive threshold
    if (x.size() != size) {
      // Sizes only grow along the positions, and so do the partner bounds:
      // lo moves forward by binary search over [lo, p).
      size = x.size();
      bounds = ComputePrefixBounds(t, size);
      required.resize(size + 1);
      for (size_t s = bounds.min_partner; s <= size; ++s) {
        required[s] = RequiredOverlapExact(size, s, t);
      }
      size_t hi = p;
      while (lo < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (plan_.size_at(mid) < bounds.min_partner) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
    }
    const uint32_t rec = plan_.by_size[p];

    candidates.clear();
    for (size_t i = 0; i < bounds.prefix_len; ++i) {
      const Posting* it = postings_.data() + start_[x[i]];
      const Posting* stop = postings_.data() + start_[x[i] + 1];
      if (it != stop && it->position < lo) {
        it = std::partition_point(it, stop, [lo](const Posting& q) { return q.position < lo; });
      }
      const size_t x_rest = size - i - 1;
      for (; it != stop && it->position < p; ++it) {
        ++scanned;
        uint32_t& c = count[it->position];
        if (c == kDropped) continue;
        if (c == 0) {
          candidates.push_back(it->position);
          if (!Admissible(input_, rec, plan_.by_size[it->position])) {
            c = kDropped;
            continue;
          }
        }
        const size_t y_size = plan_.size_at(it->position);
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
      // Verification runs over the arena's ranked spans, not the original
      // sets — same overlap, same sizes, bitwise the same score (see
      // VerifyPair), but cache-dense and free to exit early.
      const TokenSpan y = plan_.ranked_at(q);
      if (VerifyPairRequired(required[y.size()], x, y, &sim)) {
        const uint32_t other = plan_.by_size[q];
        out->push_back({std::min(rec, other), std::max(rec, other), sim});
      }
    }
  }
  if (stats != nullptr) {
    stats->postings_scanned += scanned;
    stats->candidates_pruned += pruned;
    stats->pair_verifications += verifications;
  }
}

}  // namespace internal

Result<std::vector<ScoredPair>> AllPairsJoin(const JoinInput& input, const JoinOptions& options,
                                             JoinStats* stats) {
  ParallelJoinOptions serial;
  serial.num_threads = 1;
  return ParallelAllPairsJoin(input, options, serial, stats);
}

}  // namespace similarity
}  // namespace crowder

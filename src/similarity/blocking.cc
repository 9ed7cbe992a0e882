#include "similarity/blocking.h"

#include <algorithm>

#include "common/logging.h"
#include "similarity/join_internal.h"

namespace crowder {
namespace similarity {

Result<std::vector<CandidatePair>> TokenBlocking(const JoinInput& input,
                                                 const BlockingOptions& options) {
  JoinOptions probe;  // only used for input validation
  probe.threshold = 0.0;
  CROWDER_RETURN_NOT_OK(ValidateJoin(input, probe));

  text::TokenId max_token = 0;
  for (const auto& set : input.sets) {
    for (text::TokenId tok : set) max_token = std::max(max_token, tok);
  }
  std::vector<std::vector<uint32_t>> blocks(static_cast<size_t>(max_token) + 1);
  for (uint32_t rec = 0; rec < input.sets.size(); ++rec) {
    for (text::TokenId tok : input.sets[rec]) blocks[tok].push_back(rec);
  }

  std::vector<CandidatePair> out;
  for (const auto& block : blocks) {
    if (block.size() < 2) continue;
    if (options.max_block_size > 0 && block.size() > options.max_block_size) continue;
    for (size_t i = 0; i < block.size(); ++i) {
      for (size_t j = i + 1; j < block.size(); ++j) {
        const uint32_t a = block[i];
        const uint32_t b = block[j];
        if (!input.sources.empty() && input.sources[a] == input.sources[b]) continue;
        out.push_back({a, b});
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const CandidatePair& x, const CandidatePair& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const CandidatePair& x, const CandidatePair& y) {
                          return x.a == y.a && x.b == y.b;
                        }),
            out.end());
  return out;
}

Result<std::vector<ScoredPair>> VerifyCandidates(const JoinInput& input,
                                                 const std::vector<CandidatePair>& candidates,
                                                 const JoinOptions& options) {
  CROWDER_RETURN_NOT_OK(ValidateJoin(input, options));
  std::vector<ScoredPair> out;
  out.reserve(candidates.size() / 4);
  for (const auto& cand : candidates) {
    if (cand.a >= input.sets.size() || cand.b >= input.sets.size()) {
      return Status::OutOfRange("candidate pair references record beyond input");
    }
    // Threshold-aware verify over the original sorted sets: bitwise the same
    // accept set and scores as Jaccard >= threshold, but free to abandon
    // pairs that cannot reach the threshold (internal::VerifyPair).
    double sim;
    if (internal::VerifyPair(options.threshold, input.sets[cand.a], input.sets[cand.b], &sim)) {
      out.push_back({cand.a, cand.b, sim});
    }
  }
  SortPairs(&out);
  return out;
}

}  // namespace similarity
}  // namespace crowder

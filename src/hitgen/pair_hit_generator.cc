#include "hitgen/pair_hit_generator.h"

#include <algorithm>

namespace crowder {
namespace hitgen {

Result<std::vector<PairBasedHit>> GeneratePairHits(const std::vector<graph::Edge>& pairs,
                                                   uint32_t pairs_per_hit) {
  if (pairs_per_hit == 0) return Status::InvalidArgument("pairs_per_hit must be positive");
  std::vector<PairBasedHit> hits;
  hits.reserve((pairs.size() + pairs_per_hit - 1) / pairs_per_hit);
  // Each HIT is one slice, copied in one allocation.
  for (size_t begin = 0; begin < pairs.size(); begin += pairs_per_hit) {
    const size_t end = std::min(pairs.size(), begin + pairs_per_hit);
    hits.push_back(PairBasedHit{{pairs.begin() + begin, pairs.begin() + end}});
  }
  return hits;
}

}  // namespace hitgen
}  // namespace crowder

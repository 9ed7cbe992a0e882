// Pair-based HIT generation (§3.1): chunk the surviving pairs into batches
// of at most `pairs_per_hit`, producing ceil(|P| / pairs_per_hit) HITs.
#ifndef CROWDER_HITGEN_PAIR_HIT_GENERATOR_H_
#define CROWDER_HITGEN_PAIR_HIT_GENERATOR_H_

#include <vector>

#include "common/result.h"
#include "hitgen/hit.h"

namespace crowder {
namespace hitgen {

/// \brief Batches `pairs` into pair-based HITs of at most `pairs_per_hit`.
/// Pairs keep their input order (the workflow feeds them sorted by record
/// ids, so HITs group related records, which mildly helps workers). HIT i
/// holds pairs [i * pairs_per_hit, (i + 1) * pairs_per_hit), so a split of
/// the pairs at multiples of `pairs_per_hit`, packed slice by slice, yields
/// the same HITs as one call — the property the partitioned crowd boundary
/// relies on (hit_test pins it).
Result<std::vector<PairBasedHit>> GeneratePairHits(const std::vector<graph::Edge>& pairs,
                                                   uint32_t pairs_per_hit);

}  // namespace hitgen
}  // namespace crowder

#endif  // CROWDER_HITGEN_PAIR_HIT_GENERATOR_H_

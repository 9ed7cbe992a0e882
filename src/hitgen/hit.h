// HIT (Human Intelligence Task) types of CrowdER §3.
//
// A pair-based HIT batches explicit record pairs; a worker answers each pair
// independently. A cluster-based HIT batches records; a worker labels
// duplicates among them, implicitly verifying every pair inside the HIT.
#ifndef CROWDER_HITGEN_HIT_H_
#define CROWDER_HITGEN_HIT_H_

#include <cstdint>
#include <vector>

#include "graph/pair_graph.h"

namespace crowder {
namespace hitgen {

/// \brief A batch of record pairs to verify individually (§3.1, Figure 3).
struct PairBasedHit {
  std::vector<graph::Edge> pairs;
};

/// \brief A batch of records among which workers find all duplicates
/// (§3.2, Figure 4). Records are sorted ascending.
struct ClusterBasedHit {
  std::vector<uint32_t> records;

  /// The pairs this HIT is able to check: all pairs of its records that are
  /// present in `universe` (the original pair graph, liveness ignored).
  std::vector<graph::Edge> CoveredPairs(const graph::PairGraph& universe) const;

  size_t size() const { return records.size(); }
};

/// \brief Verifies the two requirements of Definition 1 against a pair set:
/// (1) every HIT has at most k records; (2) every original pair of `universe`
/// is contained in at least one HIT. Returns OK or an InvalidArgument
/// describing the first violation. No run calls it: it is the reference the
/// generator tests check every cover against.
Status ValidateClusterCover(const std::vector<ClusterBasedHit>& hits,
                            const graph::PairGraph& universe, uint32_t k);

}  // namespace hitgen
}  // namespace crowder

#endif  // CROWDER_HITGEN_HIT_H_

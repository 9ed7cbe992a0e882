// CrowdER §6 "back of the envelope" model of worker effort.
//
// A pair-based HIT with p pairs costs p comparisons. For a cluster-based HIT
// with n records containing entities e_1..e_m (|e_i| records each), a worker
// who identifies entities one by one performs
//     sum_{i=1..m} ( n - 1 - sum_{j<i} |e_j| )          (Equation 1)
//  =  (n-1)·m - sum_{i=1..m-1} (m-i)·|e_i|              (Equation 2)
// comparisons; the order in which entities are identified matters.
//
// Note on Eq. 2's minimizer: the weights (m-i) decrease with i, so the sum
// being subtracted is maximized — and the comparison count minimized — by
// identifying entities in *decreasing* size order. The paper's prose says
// "increasing", but its own Example 4 identifies the size-3 entity first and
// obtains the minimum (3 comparisons), confirming decreasing order is best.
// We implement the math and flag the discrepancy in EXPERIMENTS.md.
//
// No run calls the model: paper_examples_test reproduces §6's examples with
// it.
#ifndef CROWDER_HITGEN_COMPARISON_MODEL_H_
#define CROWDER_HITGEN_COMPARISON_MODEL_H_

#include <cstdint>
#include <vector>

#include "hitgen/hit.h"

namespace crowder {
namespace hitgen {

/// \brief Comparisons for identifying entities in exactly the given order.
/// `entity_sizes[i]` = number of HIT records belonging to the i-th entity
/// identified; sizes must be positive. Equation 1.
uint64_t ComparisonsInOrder(const std::vector<uint32_t>& entity_sizes);

/// \brief Minimum over identification orders (decreasing entity size).
uint64_t MinComparisons(std::vector<uint32_t> entity_sizes);

/// \brief Maximum over identification orders (increasing entity size).
uint64_t MaxComparisons(std::vector<uint32_t> entity_sizes);

/// \brief Entity sizes within a HIT, given a ground-truth entity id per
/// record (entity_of[record] = entity id). Order of the returned sizes is
/// by first appearance in the HIT's record list.
std::vector<uint32_t> EntitySizesInHit(const ClusterBasedHit& hit,
                                       const std::vector<uint32_t>& entity_of);

/// \brief Comparisons required by a pair-based HIT: one per pair.
uint64_t PairHitComparisons(const PairBasedHit& hit);

}  // namespace hitgen
}  // namespace crowder

#endif  // CROWDER_HITGEN_COMPARISON_MODEL_H_

// The cutting-stock / bin-packing solver behind CrowdER's bottom tier (§5.3):
// pack small connected components (items, size = #vertices) into the minimum
// number of cluster-based HITs (bins, capacity = cluster-size threshold k).
//
// Faithful to the paper's solution method: the LP relaxation of the pattern
// formulation is solved by column generation (Gilmore-Gomory [14]) with an
// unbounded-knapsack pricing problem; an integer optimum is then sought by
// branch-and-bound ([25]). ⌈LP⌉ is a lower bound on the bin count, and the
// solver returns the first packing that reaches it, trying in this order:
//
//   1. First-fit decreasing, O(n log n) over a max-slack segment tree. It is
//      the incumbent, and the answer when it meets ⌈LP⌉. On Product at
//      threshold 0.3 and k = 10 it never does: it is 5-6 bins above ⌈LP⌉ at
//      ×6 (the repository benchmark's seeds 0-5), 19 above at ×25 and 27
//      above at ×50.
//   2. The first descent of a depth-first branch-and-bound that fills one
//      maximal bin at a time, fullest first, pruned by the volume bound
//      ⌈Σ sizes / k⌉. Move lists are memoized on the demand capped at
//      ⌊k / size⌋ + 1 per size. On those inputs this descent reaches ⌈LP⌉:
//      1,234 bins in 1,235 nodes at ×6, seed 0.
//   3. The stop at the bound: the search returns as soon as its incumbent
//      reaches ⌈LP⌉, so the answer is the first leaf in DFS order that does.
//   4. Residual rounding (Wäscher and Gau, 1996), only when the first
//      descent ends short of ⌈LP⌉, at a leaf or at a pruned node: ⌊x⌋ bins
//      of every LP column, then the small residual packed by first-fit
//      decreasing and the same search. If that reaches ⌈LP⌉, it is the
//      answer.
//   5. Otherwise the search goes on within its node budget, and the
//      rounding is kept only if it uses strictly fewer bins.
#ifndef CROWDER_LP_CUTTING_STOCK_H_
#define CROWDER_LP_CUTTING_STOCK_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace crowder {
namespace lp {

/// \brief A HIT pattern in the paper's notation p = [a_1, ..., a_k]:
/// counts[j] = number of items of size j+1 in one bin.
using Pattern = std::vector<uint32_t>;

/// \brief Total size consumed by a pattern.
uint32_t PatternWeight(const Pattern& pattern);

struct CuttingStockOptions {
  /// Column-generation round cap (each round solves one master LP).
  int max_colgen_rounds = 500;
  /// Search for a packing when first-fit decreasing misses ⌈LP⌉. When false
  /// (or the node budget is exhausted) the best packing found is returned
  /// with proven_optimal = false.
  bool exact = true;
  /// Branch-and-bound node budget (the residual search gets its own).
  int max_bb_nodes = 500000;
  double eps = 1e-6;
};

struct CuttingStockResult {
  /// Distinct patterns used and how many bins take each pattern.
  std::vector<Pattern> patterns;
  std::vector<uint32_t> counts;
  uint32_t num_bins = 0;
  /// A valid lower bound on num_bins: the LP optimum when column generation
  /// converges, Farley's bound when max_colgen_rounds stops it first.
  double lp_bound = 0.0;
  bool proven_optimal = false;
  /// Branch-and-bound nodes visited, residual rounding's search included;
  /// 0 when first-fit decreasing meets the bound. A statistic, not a knob.
  uint64_t search_nodes = 0;
};

/// \brief Solves min-bins for `demands[j]` items of size j+1 and bin capacity
/// `capacity`. demands may be shorter than capacity; any demanded size larger
/// than the capacity is an InvalidArgument.
Result<CuttingStockResult> SolveCuttingStock(uint32_t capacity,
                                             const std::vector<uint32_t>& demands,
                                             const CuttingStockOptions& options = {});

/// \brief First-fit-decreasing bin packing over explicit items, O(n log n).
/// Returns bins as lists of item indices into `item_sizes`, in opening order;
/// ties in size keep input order. Items larger than the capacity (or of size
/// 0) are an InvalidArgument.
Result<std::vector<std::vector<uint32_t>>> FirstFitDecreasing(
    uint32_t capacity, const std::vector<uint32_t>& item_sizes);

}  // namespace lp
}  // namespace crowder

#endif  // CROWDER_LP_CUTTING_STOCK_H_

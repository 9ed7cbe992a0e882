// Bottom tier of the two-tiered approach (§5.3): pack small connected
// components into the minimum number of cluster-based HITs of capacity k.
#ifndef CROWDER_HITGEN_PACKING_H_
#define CROWDER_HITGEN_PACKING_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "hitgen/hit.h"
#include "lp/cutting_stock.h"

namespace crowder {
namespace hitgen {

enum class PackingStrategy {
  kIlp,   ///< paper: cutting-stock ILP (column generation + branch-and-bound)
  kFfd,   ///< ablation: first-fit-decreasing bin packing
  kNone,  ///< ablation: one HIT per small component (no packing)
};

struct PackingOptions {
  PackingStrategy strategy = PackingStrategy::kIlp;
  lp::CuttingStockOptions ilp;
};

/// \brief Packs `sccs` (each a set of <= k records) into HITs of at most k
/// records. Every SCC lands whole inside exactly one HIT, so all pairs the
/// SCC covers remain covered. InvalidArgument if any SCC exceeds k or is
/// empty.
Result<std::vector<ClusterBasedHit>> PackSccs(const std::vector<std::vector<uint32_t>>& sccs,
                                              uint32_t k, const PackingOptions& options = {});

}  // namespace hitgen
}  // namespace crowder

#endif  // CROWDER_HITGEN_PACKING_H_

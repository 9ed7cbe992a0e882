// CrowdER's main algorithmic contribution (§5): the two-tiered cluster-HIT
// generator.
//
// Top tier (Algorithm 1 lines 2-5, DecomposeTopTier — the one copy, which
// TwoTieredGenerator, core's per-bucket boundary and the benches call):
// components of at most k vertices stay whole, and each large connected
// component (more than k vertices) is greedily partitioned by PartitionLcc
// (Algorithm 2) into highly-connected small components —
// seed with the maximum-degree vertex, then repeatedly absorb the candidate
// with maximum indegree (edges into the part), breaking ties by minimum
// outdegree (edges to the outside), until the part reaches k vertices or no
// candidate remains; covered edges are removed and the loop continues while
// the component has edges.
//
// Both picks are exact maxima of total orders, found with lazy heaps rather
// than scans. Seeds come from a max-heap over the component on (alive
// degree desc, id asc); alive degrees only fall, so a stale entry is
// re-pushed at its current degree when it surfaces. Candidates come from a
// per-part max-heap on (indegree desc, outdegree asc, id asc) that gets a
// new entry at every indegree rise; within a part both keys only improve,
// so older entries rank below the live one and are skipped. A seed costs
// O(log V) plus one re-push per stale entry; a part costs O(log) per alive
// edge at its members, each of which pushes at most one entry. A scan
// would cost O(V) per part and O(|candidates|) per pick, which grows with
// the square of a hub's degree.
//
// Bottom tier (§5.3): the resulting small components are packed into HITs of
// capacity k by the cutting-stock integer program (see lp/cutting_stock.h),
// or by first-fit-decreasing / no packing for ablations.
#ifndef CROWDER_HITGEN_TWO_TIERED_GENERATOR_H_
#define CROWDER_HITGEN_TWO_TIERED_GENERATOR_H_

#include "graph/connected_components.h"
#include "hitgen/cluster_generator.h"
#include "hitgen/packing.h"

namespace crowder {
namespace hitgen {

/// \brief Top-tier knobs (ablation ABL-2).
struct PartitionOptions {
  /// How the first vertex of each small component is chosen.
  enum class SeedRule {
    kMaxDegree,  ///< paper: vertex with the maximum alive degree
    kFirst,      ///< ablation: smallest-id vertex with an alive edge
  };
  SeedRule seed_rule = SeedRule::kMaxDegree;
  /// Apply the paper's minimum-outdegree tie-break when several candidates
  /// share the maximum indegree. Disabled (ablation), ties fall directly to
  /// the smallest id.
  bool outdegree_tiebreak = true;
};

/// \brief Partitions one large connected component (Algorithm 2 inner loop).
/// `lcc` must be a connected component of `*graph` under alive edges; the
/// covered edges are removed from the graph as parts are emitted. Returns
/// the small components (each <= k vertices, sorted ascending).
std::vector<std::vector<uint32_t>> PartitionLcc(graph::PairGraph* graph,
                                                const std::vector<uint32_t>& lcc, uint32_t k,
                                                const PartitionOptions& options = {});

/// \brief The top tier's output: the small components of the pair graph
/// (ascending members, in component order) and the parts PartitionLcc cut
/// the large ones into (in component order, then part order). Packed in
/// that order, small components first, they are Algorithm 1's scc list.
struct TopTier {
  std::vector<std::vector<uint32_t>> small;
  std::vector<std::vector<uint32_t>> parts;
};

/// \brief The top tier (Algorithm 1 lines 2-5): splits the components of
/// `*graph` at k, partitions each larger one with PartitionLcc, and removes
/// the small components' edges, so no alive edge is left.
TopTier DecomposeTopTier(graph::PairGraph* graph, uint32_t k,
                         const PartitionOptions& options = {});

struct TwoTieredOptions {
  PartitionOptions partition;
  PackingOptions packing;
};

class TwoTieredGenerator : public ClusterHitGenerator {
 public:
  explicit TwoTieredGenerator(TwoTieredOptions options = {}) : options_(std::move(options)) {}

  const std::string& name() const override {
    static const std::string kName = "two-tiered";
    return kName;
  }

  Result<std::vector<ClusterBasedHit>> Generate(graph::PairGraph* graph, uint32_t k) override;

 private:
  TwoTieredOptions options_;
};

}  // namespace hitgen
}  // namespace crowder

#endif  // CROWDER_HITGEN_TWO_TIERED_GENERATOR_H_

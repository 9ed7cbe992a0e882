#include "hitgen/two_tiered_generator.h"

#include <algorithm>

namespace crowder {
namespace hitgen {

namespace {

// Each part's seed without rescanning the component. kMaxDegree keeps a lazy
// max-heap on (alive degree desc, id asc). Alive degrees only fall, so a
// stale entry ranks at or above its vertex's true key; it is re-pushed at
// the current degree when it surfaces, and a fresh top is the maximum.
// kFirst walks a cursor up the ascending component: a vertex whose alive
// degree reached 0 never regains an edge.
class SeedPicker {
 public:
  SeedPicker(const graph::PairGraph& graph, const std::vector<uint32_t>& lcc,
             PartitionOptions::SeedRule rule)
      : graph_(graph), lcc_(lcc), rule_(rule) {
    if (rule_ != PartitionOptions::SeedRule::kMaxDegree) return;
    for (uint32_t v : lcc) {
      const uint32_t d = graph.AliveDegree(v);
      if (d > 0) heap_.push_back({d, v});
    }
    std::make_heap(heap_.begin(), heap_.end(), RanksBelow);
  }

  // The next part's seed, or -1 when the component has no alive edge left.
  int64_t Next() {
    if (rule_ == PartitionOptions::SeedRule::kFirst) {
      while (cursor_ < lcc_.size() && graph_.AliveDegree(lcc_[cursor_]) == 0) ++cursor_;
      return cursor_ < lcc_.size() ? static_cast<int64_t>(lcc_[cursor_]) : -1;
    }
    while (!heap_.empty()) {
      const Entry top = heap_.front();
      const uint32_t d = graph_.AliveDegree(top.vertex);
      if (d == top.degree) return top.vertex;
      std::pop_heap(heap_.begin(), heap_.end(), RanksBelow);
      heap_.pop_back();
      if (d > 0) {
        heap_.push_back({d, top.vertex});
        std::push_heap(heap_.begin(), heap_.end(), RanksBelow);
      }
    }
    return -1;
  }

 private:
  struct Entry {
    uint32_t degree;
    uint32_t vertex;
  };
  // Heap order: true when `a` ranks below `b`.
  static bool RanksBelow(const Entry& a, const Entry& b) {
    return a.degree != b.degree ? a.degree < b.degree : a.vertex > b.vertex;
  }

  const graph::PairGraph& graph_;
  const std::vector<uint32_t>& lcc_;
  PartitionOptions::SeedRule rule_;
  std::vector<Entry> heap_;
  size_t cursor_ = 0;
};

// A candidate's key when pushed: indegree desc, then outdegree asc (0 for
// every candidate when the tie-break is off), then id asc.
struct Candidate {
  uint32_t indegree;
  uint32_t outdegree;
  uint32_t vertex;
};

// Heap order: true when `a` ranks below `b`.
bool CandidateRanksBelow(const Candidate& a, const Candidate& b) {
  if (a.indegree != b.indegree) return a.indegree < b.indegree;
  if (a.outdegree != b.outdegree) return a.outdegree > b.outdegree;
  return a.vertex > b.vertex;
}

}  // namespace

std::vector<std::vector<uint32_t>> PartitionLcc(graph::PairGraph* graph,
                                                const std::vector<uint32_t>& lcc, uint32_t k,
                                                const PartitionOptions& options) {
  std::vector<std::vector<uint32_t>> parts;
  std::vector<char> in_scc(graph->num_vertices(), 0);
  std::vector<char> in_conn(graph->num_vertices(), 0);
  // indegree[r] = alive edges from r into the part under construction,
  // maintained incrementally as vertices join.
  std::vector<uint32_t> indegree(graph->num_vertices(), 0);
  // Every vertex that entered conn during this part, for the reset.
  std::vector<uint32_t> touched;
  // Lazy max-heap over conn: each indegree rise pushes the new key. No edge
  // is removed while a part grows, so a candidate's indegree only rises and
  // its outdegree only falls; an entry at an older indegree (or for a vertex
  // that left conn) ranks below the live one and is skipped.
  std::vector<Candidate> heap;
  auto pop = [&heap] {
    std::pop_heap(heap.begin(), heap.end(), CandidateRanksBelow);
    heap.pop_back();
  };
  SeedPicker seeds(*graph, lcc, options.seed_rule);

  // Outer loop of Algorithm 2: one highly-connected part per iteration.
  for (;;) {
    const int64_t seed = seeds.Next();
    if (seed < 0) break;  // no alive edges remain in this component

    std::vector<uint32_t> scc;
    size_t conn_size = 0;
    auto absorb = [&](uint32_t v) {
      in_scc[v] = 1;
      scc.push_back(v);
      graph->ForEachAliveNeighbor(v, [&](uint32_t u) {
        if (in_scc[u]) return;
        if (!in_conn[u]) {
          in_conn[u] = 1;
          indegree[u] = 0;
          touched.push_back(u);
          ++conn_size;
        }
        ++indegree[u];
        const uint32_t outdegree =
            options.outdegree_tiebreak ? graph->AliveDegree(u) - indegree[u] : 0;
        heap.push_back({indegree[u], outdegree, u});
        std::push_heap(heap.begin(), heap.end(), CandidateRanksBelow);
      });
    };
    absorb(static_cast<uint32_t>(seed));

    while (scc.size() < k && conn_size > 0) {
      // Candidate with maximum indegree; ties by minimum outdegree (if
      // enabled), then smallest id for determinism. Stale entries surface
      // first only when they rank above the live top; drop them.
      while (!in_conn[heap.front().vertex] ||
             heap.front().indegree != indegree[heap.front().vertex]) {
        pop();
      }
      const uint32_t chosen = heap.front().vertex;
      pop();
      in_conn[chosen] = 0;
      --conn_size;
      absorb(chosen);
    }

    // Emit the part and remove the edges it covers (Algorithm 2 lines 13-14).
    std::sort(scc.begin(), scc.end());
    graph->RemoveEdgesCoveredBy(scc);
    for (uint32_t v : scc) in_scc[v] = 0;
    for (uint32_t v : touched) {
      in_conn[v] = 0;
      indegree[v] = 0;
    }
    touched.clear();
    heap.clear();
    parts.push_back(std::move(scc));
  }
  return parts;
}

TopTier DecomposeTopTier(graph::PairGraph* graph, uint32_t k, const PartitionOptions& options) {
  // Initial step (Algorithm 1 lines 2-4): split components by size.
  graph::SplitComponents split = graph::SplitBySize(graph::ConnectedComponents(*graph), k);
  TopTier tier;
  tier.small = std::move(split.small);
  // Line 5: partition every LCC into small components, consuming its edges.
  for (const auto& lcc : split.large) {
    for (auto& part : PartitionLcc(graph, lcc, k, options)) tier.parts.push_back(std::move(part));
  }
  // Small components are packed whole, so their edges are covered too.
  for (const auto& comp : tier.small) graph->RemoveEdgesCoveredBy(comp);
  CROWDER_DCHECK(!graph->HasAliveEdges());
  return tier;
}

Result<std::vector<ClusterBasedHit>> TwoTieredGenerator::Generate(graph::PairGraph* graph,
                                                                  uint32_t k) {
  CROWDER_RETURN_NOT_OK(ValidateGenerateArgs(graph, k));
  TopTier tier = DecomposeTopTier(graph, k, options_.partition);

  // Bottom tier (line 6): pack all small components into HITs.
  std::vector<std::vector<uint32_t>> sccs = std::move(tier.small);
  for (auto& part : tier.parts) sccs.push_back(std::move(part));
  return PackSccs(sccs, k, options_.packing);
}

}  // namespace hitgen
}  // namespace crowder

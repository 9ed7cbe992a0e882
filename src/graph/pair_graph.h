/// \file
/// \brief The pair graph of CrowdER §4–§5: vertices are records, edges are
/// the pairs that survived the machine pass and must be verified by the
/// crowd. Every cluster-based HIT generator consumes this structure; all of
/// them repeatedly "remove the edges covered by" a chosen vertex set, so
/// edges support cheap logical deletion and revival (Reset) for reuse
/// across generator runs.
///
/// **The pair-indexing contract, seen from the graph side.** Edge ids are
/// assigned in insertion order, and adjacency lists iterate in that order —
/// generators observe it through ForEachAliveNeighbor, so two graphs built
/// from the same pair sequence behave identically even if one was built
/// incrementally (PairGraphBuilder) from batches. This is one of the two
/// alignment invariants the workflow leans on (the other is the vote
/// table's, aggregate/votes.h): like the vote table, the graph itself is
/// index-aligned, pair-proportional state — which is why the partitioned
/// streaming workflow (core/partition.h) never builds the *global* graph,
/// only per-component-bucket subgraphs. A bucket subgraph presents every
/// component with the same local adjacency order as the global graph
/// (pairs arrive in globally sorted order either way), which is what makes
/// the per-bucket two-tiered decomposition byte-identical to the global
/// one.
#ifndef CROWDER_GRAPH_PAIR_GRAPH_H_
#define CROWDER_GRAPH_PAIR_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/result.h"

namespace crowder {
/// \brief Graph structures over candidate pairs: the pair graph, connected
/// components, traversals, and the union-find underlying both.
namespace graph {

/// \brief An undirected edge (record pair). Invariant after Create: a < b.
struct Edge {
  uint32_t a = 0;  ///< smaller endpoint (record id)
  uint32_t b = 0;  ///< larger endpoint (record id)

  /// \brief Structural equality on the (a, b) endpoints.
  friend bool operator==(const Edge& x, const Edge& y) { return x.a == y.a && x.b == y.b; }
};

/// \brief Undirected simple graph over dense vertex ids with edge liveness.
class PairGraph {
 public:
  /// \brief Builds a graph over vertices [0, num_vertices). Edges are
  /// normalized to a < b and deduplicated. Fails on self-loops or
  /// out-of-range endpoints. One-shot convenience over PairGraphBuilder.
  static Result<PairGraph> Create(uint32_t num_vertices, const std::vector<Edge>& edges);

  /// \brief Number of vertices the graph was built over.
  uint32_t num_vertices() const { return num_vertices_; }
  /// \brief Total edges ever added (alive + removed).
  size_t num_edges() const { return edges_.size(); }
  /// \brief Edges not yet logically removed.
  size_t num_alive_edges() const { return num_alive_; }
  /// \brief True while at least one edge is alive.
  bool HasAliveEdges() const { return num_alive_ > 0; }

  /// \brief Degree counting only alive edges.
  uint32_t AliveDegree(uint32_t v) const;

  /// \brief Alive neighbors of v (unsorted; order = insertion order of
  /// edges).
  std::vector<uint32_t> AliveNeighbors(uint32_t v) const;

  /// \brief Calls f(neighbor) for each alive neighbor of v, in edge
  /// insertion order (the order generators' tie-breaks observe).
  template <typename F>
  void ForEachAliveNeighbor(uint32_t v, F&& f) const {
    CROWDER_DCHECK_LT(static_cast<size_t>(v), adjacency_.size());
    for (uint32_t eid : adjacency_[v]) {
      if (!alive_[eid]) continue;
      const Edge& e = edges_[eid];
      f(e.a == v ? e.b : e.a);
    }
  }

  /// \brief True if the edge (u,v) exists and is alive.
  bool HasAliveEdge(uint32_t u, uint32_t v) const;

  /// \brief True if the edge (u,v) exists, alive or removed.
  bool HasEdge(uint32_t u, uint32_t v) const;

  /// \brief Marks edge (u,v) removed. Returns true if it was alive.
  bool RemoveEdge(uint32_t u, uint32_t v);

  /// \brief Removes every alive edge with both endpoints inside `vertices`
  /// ("the edges covered by" a HIT). Returns how many were removed.
  size_t RemoveEdgesCoveredBy(const std::vector<uint32_t>& vertices);

  /// \brief Revives all edges (undoes every removal).
  void Reset();

  /// \brief All alive edges, sorted by (a, b).
  std::vector<Edge> AliveEdges() const;

  /// \brief All edges regardless of liveness, sorted by (a, b).
  std::vector<Edge> AllEdges() const;

  /// \brief The alive vertex of maximum alive degree (smallest id on ties),
  /// or -1 if no edge is alive.
  int64_t MaxAliveDegreeVertex() const;

  /// \brief Vertices with at least one original edge, ascending.
  std::vector<uint32_t> NonIsolatedVertices() const;

 private:
  friend class PairGraphBuilder;

  PairGraph() = default;

  static uint64_t Key(uint32_t a, uint32_t b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  uint32_t num_vertices_ = 0;
  std::vector<Edge> edges_;
  std::vector<char> alive_;
  std::vector<std::vector<uint32_t>> adjacency_;  // vertex -> edge ids
  std::vector<uint32_t> alive_degree_;
  std::unordered_map<uint64_t, uint32_t> edge_index_;  // Key(a,b) -> edge id
  size_t num_alive_ = 0;
};

/// \brief Incremental PairGraph construction from edge batches — the shape
/// a streaming machine pass produces (core/pipeline.h). Semantics are
/// identical to PairGraph::Create over the concatenation of the batches:
/// normalization, silent deduplication, the same validation failures, and —
/// important for the byte-identity contract of the partitioned cluster
/// boundary — the same edge-id assignment (insertion order), which
/// generators observe through adjacency iteration order.
class PairGraphBuilder {
 public:
  /// \brief Prepares a builder over vertices [0, num_vertices).
  explicit PairGraphBuilder(uint32_t num_vertices);

  /// \brief Appends one batch. Fails on self-loops or out-of-range
  /// endpoints, leaving the builder unusable (as one-shot Create would have
  /// failed).
  Status Add(const std::vector<Edge>& batch);

  /// \brief Edges added so far (after normalization and deduplication).
  size_t num_edges() const { return graph_.num_edges(); }

  /// \brief Finalizes and returns the graph. Terminal: the builder is
  /// empty after.
  Result<PairGraph> Build();

 private:
  PairGraph graph_;
  bool failed_ = false;
  bool built_ = false;
};

}  // namespace graph
}  // namespace crowder

#endif  // CROWDER_GRAPH_PAIR_GRAPH_H_

#include "graph/pair_graph.h"

#include <algorithm>

#include "common/logging.h"

namespace crowder {
namespace graph {

Result<PairGraph> PairGraph::Create(uint32_t num_vertices, const std::vector<Edge>& edges) {
  PairGraphBuilder builder(num_vertices);
  CROWDER_RETURN_NOT_OK(builder.Add(edges));
  return builder.Build();
}

PairGraphBuilder::PairGraphBuilder(uint32_t num_vertices) {
  graph_.num_vertices_ = num_vertices;
  graph_.adjacency_.resize(num_vertices);
  graph_.alive_degree_.assign(num_vertices, 0);
}

Status PairGraphBuilder::Add(const std::vector<Edge>& batch) {
  CROWDER_CHECK(!built_) << "Add after Build";
  if (failed_) return Status::InvalidArgument("PairGraphBuilder already failed");
  PairGraph& g = graph_;
  for (const Edge& raw : batch) {
    uint32_t a = std::min(raw.a, raw.b);
    uint32_t b = std::max(raw.a, raw.b);
    if (a == b) {
      failed_ = true;
      return Status::InvalidArgument("self-loop on vertex " + std::to_string(a));
    }
    if (b >= g.num_vertices_) {
      failed_ = true;
      return Status::OutOfRange("edge endpoint " + std::to_string(b) + " >= num_vertices " +
                                std::to_string(g.num_vertices_));
    }
    const uint64_t key = PairGraph::Key(a, b);
    if (g.edge_index_.count(key) > 0) continue;  // deduplicate silently

    const uint32_t eid = static_cast<uint32_t>(g.edges_.size());
    g.edges_.push_back({a, b});
    g.alive_.push_back(1);
    g.edge_index_.emplace(key, eid);
    g.adjacency_[a].push_back(eid);
    g.adjacency_[b].push_back(eid);
    ++g.alive_degree_[a];
    ++g.alive_degree_[b];
  }
  return Status::OK();
}

Result<PairGraph> PairGraphBuilder::Build() {
  CROWDER_CHECK(!built_) << "Build called twice";
  if (failed_) return Status::InvalidArgument("PairGraphBuilder already failed");
  built_ = true;
  graph_.num_alive_ = graph_.edges_.size();
  return std::move(graph_);
}

uint32_t PairGraph::AliveDegree(uint32_t v) const {
  CROWDER_CHECK_LT(static_cast<size_t>(v), alive_degree_.size());
  return alive_degree_[v];
}

std::vector<uint32_t> PairGraph::AliveNeighbors(uint32_t v) const {
  std::vector<uint32_t> out;
  out.reserve(AliveDegree(v));
  ForEachAliveNeighbor(v, [&](uint32_t u) { out.push_back(u); });
  return out;
}

bool PairGraph::HasAliveEdge(uint32_t u, uint32_t v) const {
  if (u == v) return false;
  auto it = edge_index_.find(Key(std::min(u, v), std::max(u, v)));
  return it != edge_index_.end() && alive_[it->second];
}

bool PairGraph::HasEdge(uint32_t u, uint32_t v) const {
  if (u == v) return false;
  return edge_index_.count(Key(std::min(u, v), std::max(u, v))) > 0;
}

bool PairGraph::RemoveEdge(uint32_t u, uint32_t v) {
  if (u == v) return false;
  auto it = edge_index_.find(Key(std::min(u, v), std::max(u, v)));
  if (it == edge_index_.end() || !alive_[it->second]) return false;
  alive_[it->second] = 0;
  --alive_degree_[edges_[it->second].a];
  --alive_degree_[edges_[it->second].b];
  --num_alive_;
  return true;
}

size_t PairGraph::RemoveEdgesCoveredBy(const std::vector<uint32_t>& vertices) {
  // Membership by binary search in the sorted vertex set, so a call costs
  // O(sum degree of members · log |vertices|). A bitmap over all n vertices
  // would cost O(n) per call, and the two-tiered generator makes one call
  // per part and per HIT. Its sets arrive sorted; others are sorted in a
  // copy.
  std::vector<uint32_t> sorted_copy;
  if (!std::is_sorted(vertices.begin(), vertices.end())) {
    sorted_copy = vertices;
    std::sort(sorted_copy.begin(), sorted_copy.end());
  }
  const std::vector<uint32_t>& members = sorted_copy.empty() ? vertices : sorted_copy;
  for (uint32_t v : members) {
    CROWDER_CHECK_LT(static_cast<size_t>(v), static_cast<size_t>(num_vertices_));
  }
  size_t removed = 0;
  for (uint32_t v : members) {
    for (uint32_t eid : adjacency_[v]) {
      if (!alive_[eid]) continue;
      const Edge& e = edges_[eid];
      if (std::binary_search(members.begin(), members.end(), e.a == v ? e.b : e.a)) {
        alive_[eid] = 0;
        --alive_degree_[e.a];
        --alive_degree_[e.b];
        --num_alive_;
        ++removed;
      }
    }
  }
  return removed;
}

void PairGraph::Reset() {
  std::fill(alive_.begin(), alive_.end(), 1);
  std::fill(alive_degree_.begin(), alive_degree_.end(), 0);
  for (const Edge& e : edges_) {
    ++alive_degree_[e.a];
    ++alive_degree_[e.b];
  }
  num_alive_ = edges_.size();
}

std::vector<Edge> PairGraph::AliveEdges() const {
  std::vector<Edge> out;
  out.reserve(num_alive_);
  for (size_t i = 0; i < edges_.size(); ++i) {
    if (alive_[i]) out.push_back(edges_[i]);
  }
  std::sort(out.begin(), out.end(),
            [](const Edge& x, const Edge& y) { return x.a != y.a ? x.a < y.a : x.b < y.b; });
  return out;
}

std::vector<Edge> PairGraph::AllEdges() const {
  std::vector<Edge> out = edges_;
  std::sort(out.begin(), out.end(),
            [](const Edge& x, const Edge& y) { return x.a != y.a ? x.a < y.a : x.b < y.b; });
  return out;
}

int64_t PairGraph::MaxAliveDegreeVertex() const {
  int64_t best = -1;
  uint32_t best_degree = 0;
  for (uint32_t v = 0; v < num_vertices_; ++v) {
    if (alive_degree_[v] > best_degree) {
      best_degree = alive_degree_[v];
      best = v;
    }
  }
  return best;
}

std::vector<uint32_t> PairGraph::NonIsolatedVertices() const {
  std::vector<char> seen(num_vertices_, 0);
  for (const Edge& e : edges_) {
    seen[e.a] = 1;
    seen[e.b] = 1;
  }
  std::vector<uint32_t> out;
  for (uint32_t v = 0; v < num_vertices_; ++v) {
    if (seen[v]) out.push_back(v);
  }
  return out;
}

}  // namespace graph
}  // namespace crowder

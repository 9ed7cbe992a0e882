// Tests for the pair graph, union-find, connected components and traversals.
#include <gtest/gtest.h>

#include "graph/connected_components.h"
#include "graph/pair_graph.h"
#include "graph/traversal.h"
#include "graph/union_find.h"

namespace crowder {
namespace graph {
namespace {

// The paper's Figure 5 graph: the ten pairs of Figure 2(a) over nine records
// (0-indexed), i.e. the Table 1 pairs with name-Jaccard >= 0.3.
std::vector<Edge> Figure5Edges() {
  return {{0, 1}, {0, 6}, {1, 2}, {1, 6}, {2, 3}, {2, 4}, {3, 4}, {3, 5}, {3, 6}, {7, 8}};
}

TEST(UnionFindTest, BasicUnions) {
  UnionFind uf(5);
  EXPECT_FALSE(uf.Connected(0, 1));
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Union(0, 1));  // already merged
  EXPECT_EQ(uf.SetSize(0), 2u);
  uf.Union(2, 3);
  uf.Union(1, 2);
  EXPECT_TRUE(uf.Connected(0, 3));
  EXPECT_EQ(uf.SetSize(3), 4u);
  EXPECT_EQ(uf.SetSize(4), 1u);
}

TEST(PairGraphTest, CreateNormalizesAndDedups) {
  auto g = PairGraph::Create(4, {{1, 0}, {0, 1}, {2, 3}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_EQ(g->num_alive_edges(), 2u);
  EXPECT_TRUE(g->HasAliveEdge(0, 1));
  EXPECT_TRUE(g->HasAliveEdge(1, 0));
}

TEST(PairGraphTest, RejectsSelfLoop) {
  EXPECT_FALSE(PairGraph::Create(3, {{1, 1}}).ok());
}

TEST(PairGraphTest, RejectsOutOfRange) {
  auto g = PairGraph::Create(3, {{0, 3}});
  EXPECT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsOutOfRange());
}

TEST(PairGraphTest, DegreesAndNeighbors) {
  auto g = PairGraph::Create(9, Figure5Edges()).ValueOrDie();
  EXPECT_EQ(g.AliveDegree(3), 4u);  // r4 in the paper has degree 4
  EXPECT_EQ(g.AliveDegree(0), 2u);
  EXPECT_EQ(g.AliveDegree(7), 1u);
  auto nbrs = g.AliveNeighbors(3);
  std::sort(nbrs.begin(), nbrs.end());
  EXPECT_EQ(nbrs, (std::vector<uint32_t>{2, 4, 5, 6}));
}

TEST(PairGraphTest, RemoveEdgeUpdatesState) {
  auto g = PairGraph::Create(9, Figure5Edges()).ValueOrDie();
  EXPECT_TRUE(g.RemoveEdge(0, 1));
  EXPECT_FALSE(g.RemoveEdge(0, 1));  // already removed
  EXPECT_FALSE(g.HasAliveEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 1));  // liveness-insensitive
  EXPECT_EQ(g.num_alive_edges(), 9u);
  EXPECT_EQ(g.AliveDegree(0), 1u);
}

TEST(PairGraphTest, RemoveEdgesCoveredBy) {
  auto g = PairGraph::Create(9, Figure5Edges()).ValueOrDie();
  // {r3,r4,r5,r6} = {2,3,4,5}: covers (2,3),(2,4),(3,4),(3,5) -> 4 edges.
  EXPECT_EQ(g.RemoveEdgesCoveredBy({2, 3, 4, 5}), 4u);
  EXPECT_EQ(g.num_alive_edges(), 6u);
  EXPECT_FALSE(g.HasAliveEdge(2, 3));
  EXPECT_TRUE(g.HasAliveEdge(3, 6));  // r7 not in the set
}

TEST(PairGraphTest, ResetRevivesEverything) {
  auto g = PairGraph::Create(9, Figure5Edges()).ValueOrDie();
  g.RemoveEdgesCoveredBy({0, 1, 2, 6});
  ASSERT_LT(g.num_alive_edges(), 10u);
  g.Reset();
  EXPECT_EQ(g.num_alive_edges(), 10u);
  EXPECT_EQ(g.AliveDegree(3), 4u);
}

TEST(PairGraphTest, AliveEdgesSorted) {
  auto g = PairGraph::Create(9, Figure5Edges()).ValueOrDie();
  g.RemoveEdge(0, 1);
  const auto edges = g.AliveEdges();
  EXPECT_EQ(edges.size(), 9u);
  for (size_t i = 1; i < edges.size(); ++i) {
    EXPECT_TRUE(edges[i - 1].a < edges[i].a ||
                (edges[i - 1].a == edges[i].a && edges[i - 1].b < edges[i].b));
  }
}

TEST(ConnectedComponentsTest, Figure5HasTwoComponents) {
  auto g = PairGraph::Create(9, Figure5Edges()).ValueOrDie();
  const auto comps = ConnectedComponents(g);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], (Component{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(comps[1], (Component{7, 8}));
}

TEST(ConnectedComponentsTest, RespectsEdgeRemoval) {
  auto g = PairGraph::Create(9, Figure5Edges()).ValueOrDie();
  // Isolating vertex 2 splits the big component from nothing else: removing
  // its three edges leaves {0,1,6}+{3,4,5} joined through (3,6).
  g.RemoveEdge(1, 2);
  g.RemoveEdge(2, 3);
  g.RemoveEdge(2, 4);
  const auto comps = ConnectedComponents(g);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], (Component{0, 1, 3, 4, 5, 6}));
  EXPECT_EQ(comps[1], (Component{7, 8}));
}

TEST(ConnectedComponentsTest, SplitBySize) {
  auto g = PairGraph::Create(9, Figure5Edges()).ValueOrDie();
  auto split = SplitBySize(ConnectedComponents(g), 4);
  ASSERT_EQ(split.large.size(), 1u);
  ASSERT_EQ(split.small.size(), 1u);
  EXPECT_EQ(split.large[0].size(), 7u);
  EXPECT_EQ(split.small[0].size(), 2u);
}

TEST(TraversalTest, BfsOrderFromStart) {
  //  0-1, 0-2, 1-3, 2-3 square: BFS from 0 visits 0,1,2,3.
  auto g = PairGraph::Create(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}).ValueOrDie();
  EXPECT_EQ(BfsOrder(g, 0), (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(TraversalTest, DfsOrderFromStart) {
  auto g = PairGraph::Create(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}).ValueOrDie();
  // DFS with ascending expansion: 0 -> 1 -> 3 -> 2.
  EXPECT_EQ(DfsOrder(g, 0), (std::vector<uint32_t>{0, 1, 3, 2}));
}

TEST(TraversalTest, TraversalsSkipRemovedEdges) {
  auto g = PairGraph::Create(4, {{0, 1}, {1, 2}, {2, 3}}).ValueOrDie();
  g.RemoveEdge(1, 2);
  EXPECT_EQ(BfsOrder(g, 0), (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(DfsOrder(g, 2), (std::vector<uint32_t>{2, 3}));
}

TEST(TraversalTest, FirstVertexWithAliveEdge) {
  auto g = PairGraph::Create(5, {{2, 3}}).ValueOrDie();
  EXPECT_EQ(FirstVertexWithAliveEdge(g), 2);
  g.RemoveEdge(2, 3);
  EXPECT_EQ(FirstVertexWithAliveEdge(g), -1);
}

}  // namespace
}  // namespace graph
}  // namespace crowder

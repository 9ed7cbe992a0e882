// Tests for all five cluster-based HIT generators: paper worked examples as
// golden tests, plus a parameterized invariant sweep (every generator must
// satisfy both requirements of Definition 1 on random graphs).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "graph/connected_components.h"
#include "graph/pair_graph.h"
#include "hitgen/approximation_generator.h"
#include "hitgen/baseline_generators.h"
#include "hitgen/cluster_generator.h"
#include "hitgen/packing.h"
#include "hitgen/two_tiered_generator.h"

namespace crowder {
namespace hitgen {
namespace {

std::vector<graph::Edge> Figure5Edges() {
  return {{0, 1}, {0, 6}, {1, 2}, {1, 6}, {2, 3}, {2, 4}, {3, 4}, {3, 5}, {3, 6}, {7, 8}};
}

graph::PairGraph Figure5Graph() {
  return graph::PairGraph::Create(9, Figure5Edges()).ValueOrDie();
}

std::vector<graph::Edge> RandomEdges(uint64_t seed, uint32_t n, double density) {
  Rng rng(seed);
  std::vector<graph::Edge> edges;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(density)) edges.push_back({i, j});
    }
  }
  return edges;
}

// ---------------------------------------------------------------------------
// Two-tiered: paper worked examples.
// ---------------------------------------------------------------------------

TEST(TwoTieredTest, PaperExample3Partitioning) {
  // Example 3 partitions the Figure 5 LCC into {r3,r4,r5,r6}, {r1,r2,r3,r7}
  // and {r4,r7} (0-indexed: {2,3,4,5}, {0,1,2,6}, {3,6}).
  auto g = Figure5Graph();
  const std::vector<uint32_t> lcc{0, 1, 2, 3, 4, 5, 6};
  const auto parts = PartitionLcc(&g, lcc, 4);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], (std::vector<uint32_t>{2, 3, 4, 5}));
  EXPECT_EQ(parts[1], (std::vector<uint32_t>{0, 1, 2, 6}));
  EXPECT_EQ(parts[2], (std::vector<uint32_t>{3, 6}));
}

TEST(TwoTieredTest, PaperOptimalThreeHits) {
  // §5.1: the full two-tiered pipeline produces three cluster-based HITs for
  // the ten pairs with k=4 — the optimum from §3.2.
  auto g = Figure5Graph();
  TwoTieredGenerator generator;
  auto hits = generator.Generate(&g, 4);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 3u);
  g.Reset();
  EXPECT_TRUE(ValidateClusterCover(*hits, g, 4).ok());
}

TEST(TwoTieredTest, PartitioningSeedRuleAblation) {
  auto g = Figure5Graph();
  PartitionOptions options;
  options.seed_rule = PartitionOptions::SeedRule::kFirst;
  const auto parts = PartitionLcc(&g, {0, 1, 2, 3, 4, 5, 6}, 4, options);
  // Different seeding still covers every edge of the component.
  g.Reset();
  size_t covered = 0;
  for (const auto& part : parts) covered += g.RemoveEdgesCoveredBy(part);
  EXPECT_EQ(covered, 9u);  // the LCC has 9 edges
}

TEST(TwoTieredTest, PartitioningWithoutOutdegreeTiebreak) {
  auto g = Figure5Graph();
  PartitionOptions options;
  options.outdegree_tiebreak = false;
  const auto parts = PartitionLcc(&g, {0, 1, 2, 3, 4, 5, 6}, 4, options);
  g.Reset();
  size_t covered = 0;
  for (const auto& part : parts) covered += g.RemoveEdgesCoveredBy(part);
  EXPECT_EQ(covered, 9u);
  for (const auto& part : parts) EXPECT_LE(part.size(), 4u);
}

TEST(TwoTieredTest, FfdPackingAblationStillValid) {
  auto g = Figure5Graph();
  TwoTieredOptions options;
  options.packing.strategy = PackingStrategy::kFfd;
  TwoTieredGenerator generator(options);
  auto hits = generator.Generate(&g, 4);
  ASSERT_TRUE(hits.ok());
  g.Reset();
  EXPECT_TRUE(ValidateClusterCover(*hits, g, 4).ok());
}

TEST(TwoTieredTest, NoPackingProducesOneHitPerScc) {
  auto g = Figure5Graph();
  TwoTieredOptions options;
  options.packing.strategy = PackingStrategy::kNone;
  TwoTieredGenerator generator(options);
  auto hits = generator.Generate(&g, 4);
  ASSERT_TRUE(hits.ok());
  // 3 partition SCCs + 1 natural SCC {7,8} = 4 HITs.
  EXPECT_EQ(hits->size(), 4u);
}

TEST(TwoTieredTest, RejectsTinyK) {
  auto g = Figure5Graph();
  TwoTieredGenerator generator;
  EXPECT_FALSE(generator.Generate(&g, 1).ok());
}

TEST(TwoTieredTest, EmptyGraphYieldsNoHits) {
  auto g = graph::PairGraph::Create(5, {}).ValueOrDie();
  TwoTieredGenerator generator;
  auto hits = generator.Generate(&g, 4);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

// ---------------------------------------------------------------------------
// Two-tiered: the heap-ordered PartitionLcc against a scan-based reference.
// ---------------------------------------------------------------------------

// The scan-based Algorithm 2 partitioner PartitionLcc replaced: every part
// rescans the component for its seed, and every pick rescans the candidate
// set. The heap version must return the same parts in the same order.
int64_t ReferencePickSeed(const graph::PairGraph& graph, const std::vector<uint32_t>& lcc,
                          PartitionOptions::SeedRule rule) {
  int64_t best = -1;
  uint32_t best_degree = 0;
  for (uint32_t v : lcc) {
    const uint32_t d = graph.AliveDegree(v);
    if (d == 0) continue;
    switch (rule) {
      case PartitionOptions::SeedRule::kMaxDegree:
        if (d > best_degree || (d == best_degree && best >= 0 && v < best)) {
          best_degree = d;
          best = v;
        } else if (best < 0) {
          best_degree = d;
          best = v;
        }
        break;
      case PartitionOptions::SeedRule::kFirst:
        return v;
    }
  }
  return best;
}

std::vector<std::vector<uint32_t>> ReferencePartitionLcc(graph::PairGraph* graph,
                                                         const std::vector<uint32_t>& lcc,
                                                         uint32_t k,
                                                         const PartitionOptions& options) {
  std::vector<std::vector<uint32_t>> parts;
  std::vector<char> in_scc(graph->num_vertices(), 0);
  std::vector<char> in_conn(graph->num_vertices(), 0);
  std::vector<uint32_t> indegree(graph->num_vertices(), 0);
  for (;;) {
    const int64_t seed = ReferencePickSeed(*graph, lcc, options.seed_rule);
    if (seed < 0) break;
    std::vector<uint32_t> scc{static_cast<uint32_t>(seed)};
    in_scc[seed] = 1;
    std::vector<uint32_t> conn;
    graph->ForEachAliveNeighbor(static_cast<uint32_t>(seed), [&](uint32_t u) {
      if (!in_conn[u]) {
        in_conn[u] = 1;
        indegree[u] = 1;
        conn.push_back(u);
      }
    });
    while (scc.size() < k && !conn.empty()) {
      size_t best_pos = 0;
      uint32_t best_in = 0;
      uint32_t best_out = UINT32_MAX;
      for (size_t pos = 0; pos < conn.size(); ++pos) {
        const uint32_t r = conn[pos];
        const uint32_t indeg = indegree[r];
        const uint32_t outdeg = graph->AliveDegree(r) - indeg;
        bool better = false;
        if (indeg > best_in) {
          better = true;
        } else if (indeg == best_in) {
          if (options.outdegree_tiebreak && outdeg != best_out) {
            better = outdeg < best_out;
          } else {
            better = r < conn[best_pos];
          }
        }
        if (better) {
          best_pos = pos;
          best_in = indeg;
          best_out = outdeg;
        }
      }
      const uint32_t chosen = conn[best_pos];
      conn[best_pos] = conn.back();
      conn.pop_back();
      in_conn[chosen] = 0;
      in_scc[chosen] = 1;
      scc.push_back(chosen);
      graph->ForEachAliveNeighbor(chosen, [&](uint32_t u) {
        if (in_scc[u]) return;
        if (!in_conn[u]) {
          in_conn[u] = 1;
          indegree[u] = 0;
          conn.push_back(u);
        }
        ++indegree[u];
      });
    }
    std::sort(scc.begin(), scc.end());
    graph->RemoveEdgesCoveredBy(scc);
    for (uint32_t v : scc) in_scc[v] = 0;
    for (uint32_t v : conn) {
      in_conn[v] = 0;
      indegree[v] = 0;
    }
    parts.push_back(std::move(scc));
  }
  return parts;
}

// Hubs joined to shared spokes: hub degrees tie, spoke degrees tie, and a
// part fills from a large candidate set where most keys are equal.
std::vector<graph::Edge> HubAndSpokeEdges(Rng* rng, uint32_t hubs, uint32_t spokes) {
  std::vector<graph::Edge> edges;
  for (uint32_t h = 0; h < hubs; ++h) {
    for (uint32_t s = 0; s < spokes; ++s) {
      if (h == 0 || rng->Bernoulli(0.5)) edges.push_back({h, hubs + s});
    }
  }
  for (uint32_t s = 0; s + 1 < spokes; s += 2) {
    if (rng->Bernoulli(0.3)) edges.push_back({hubs + s, hubs + s + 1});
  }
  return edges;
}

// Cliques chained by single edges: every inner clique member has the same
// degree, so seeds and candidates tie everywhere.
std::vector<graph::Edge> CliqueChainEdges(uint32_t cliques, uint32_t size) {
  std::vector<graph::Edge> edges;
  for (uint32_t c = 0; c < cliques; ++c) {
    const uint32_t base = c * size;
    for (uint32_t i = 0; i < size; ++i) {
      for (uint32_t j = i + 1; j < size; ++j) edges.push_back({base + i, base + j});
    }
    if (c + 1 < cliques) edges.push_back({base + size - 1, base + size});
  }
  return edges;
}

TEST(PartitionLccTest, HeapsMatchTheScanReferenceOnRandomGraphs) {
  Rng rng(20260);
  int compared = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::vector<graph::Edge> edges;
    uint32_t used = 0;
    switch (trial % 3) {
      case 0:
        used = 10 + static_cast<uint32_t>(rng.Uniform(50));
        edges = RandomEdges(rng.Next64(), used, 0.05 + rng.UniformDouble() * 0.4);
        break;
      case 1: {
        const auto hubs = 1 + static_cast<uint32_t>(rng.Uniform(4));
        const auto spokes = 5 + static_cast<uint32_t>(rng.Uniform(40));
        used = hubs + spokes;
        edges = HubAndSpokeEdges(&rng, hubs, spokes);
        break;
      }
      default: {
        const auto cliques = 1 + static_cast<uint32_t>(rng.Uniform(6));
        const auto size = 2 + static_cast<uint32_t>(rng.Uniform(7));
        used = cliques * size;
        edges = CliqueChainEdges(cliques, size);
        break;
      }
    }
    if (rng.Bernoulli(0.5)) rng.Shuffle(&edges);  // adjacency order is a tie-break input
    // Isolated vertices past the used range.
    const uint32_t n = used + static_cast<uint32_t>(rng.Uniform(5));
    PartitionOptions options;
    options.seed_rule = rng.Bernoulli(0.5) ? PartitionOptions::SeedRule::kMaxDegree
                                           : PartitionOptions::SeedRule::kFirst;
    options.outdegree_tiebreak = rng.Bernoulli(0.5);
    const auto k = 2 + static_cast<uint32_t>(rng.Uniform(19));

    auto heap_graph = graph::PairGraph::Create(n, edges).ValueOrDie();
    auto scan_graph = graph::PairGraph::Create(n, edges).ValueOrDie();
    std::vector<std::vector<uint32_t>> lccs =
        graph::SplitBySize(graph::ConnectedComponents(heap_graph), k).large;
    // The whole vertex range too: several components and isolated vertices.
    std::vector<uint32_t> all(n);
    for (uint32_t v = 0; v < n; ++v) all[v] = v;
    lccs.push_back(all);
    for (const auto& lcc : lccs) {
      ASSERT_EQ(PartitionLcc(&heap_graph, lcc, k, options),
                ReferencePartitionLcc(&scan_graph, lcc, k, options))
          << "trial " << trial << " k=" << k;
      ++compared;
    }
    EXPECT_FALSE(heap_graph.HasAliveEdges());
  }
  EXPECT_GE(compared, 600);
}

// ---------------------------------------------------------------------------
// Approximation: paper Example 2.
// ---------------------------------------------------------------------------

TEST(ApproximationTest, PaperExample2SevenHits) {
  // Example 2: |SEQ| = 19 (9 vertices + 10 edges), k=4 -> ceil(19/3) = 7
  // cluster-based HITs regardless of the vertex order chosen.
  for (auto order :
       {SeqVertexOrder::kRandom, SeqVertexOrder::kAscending, SeqVertexOrder::kMaxDegree}) {
    auto g = Figure5Graph();
    ApproximationOptions options;
    options.order = order;
    ApproximationGenerator generator(options);
    auto hits = generator.Generate(&g, 4);
    ASSERT_TRUE(hits.ok());
    EXPECT_EQ(hits->size(), 7u) << "order=" << static_cast<int>(order);
  }
}

TEST(ApproximationTest, CoversAllPairs) {
  auto g = Figure5Graph();
  ApproximationGenerator generator;
  auto hits = generator.Generate(&g, 4);
  ASSERT_TRUE(hits.ok());
  g.Reset();
  EXPECT_TRUE(ValidateClusterCover(*hits, g, 4).ok());
}

TEST(ApproximationTest, SkipEmptyWindowsReducesCount) {
  ApproximationOptions with_empty;
  with_empty.count_empty_windows = true;
  with_empty.order = SeqVertexOrder::kAscending;
  ApproximationOptions without_empty = with_empty;
  without_empty.count_empty_windows = false;

  auto g1 = Figure5Graph();
  auto g2 = Figure5Graph();
  const auto hits1 = ApproximationGenerator(with_empty).Generate(&g1, 4).ValueOrDie();
  const auto hits2 = ApproximationGenerator(without_empty).Generate(&g2, 4).ValueOrDie();
  EXPECT_LE(hits2.size(), hits1.size());
  g2.Reset();
  EXPECT_TRUE(ValidateClusterCover(hits2, g2, 4).ok());
}

TEST(ApproximationTest, DeterministicGivenSeed) {
  ApproximationOptions options;
  options.seed = 99;
  auto g1 = Figure5Graph();
  auto g2 = Figure5Graph();
  const auto h1 = ApproximationGenerator(options).Generate(&g1, 5).ValueOrDie();
  const auto h2 = ApproximationGenerator(options).Generate(&g2, 5).ValueOrDie();
  ASSERT_EQ(h1.size(), h2.size());
  for (size_t i = 0; i < h1.size(); ++i) EXPECT_EQ(h1[i].records, h2[i].records);
}

// ---------------------------------------------------------------------------
// Baselines.
// ---------------------------------------------------------------------------

TEST(BaselineTest, BfsCoversFigure5) {
  auto g = Figure5Graph();
  BfsGenerator generator;
  auto hits = generator.Generate(&g, 4);
  ASSERT_TRUE(hits.ok());
  g.Reset();
  EXPECT_TRUE(ValidateClusterCover(*hits, g, 4).ok());
}

TEST(BaselineTest, DfsCoversFigure5) {
  auto g = Figure5Graph();
  DfsGenerator generator;
  auto hits = generator.Generate(&g, 4);
  ASSERT_TRUE(hits.ok());
  g.Reset();
  EXPECT_TRUE(ValidateClusterCover(*hits, g, 4).ok());
}

TEST(BaselineTest, RandomCoversFigure5) {
  auto g = Figure5Graph();
  RandomGenerator generator(123);
  auto hits = generator.Generate(&g, 4);
  ASSERT_TRUE(hits.ok());
  g.Reset();
  EXPECT_TRUE(ValidateClusterCover(*hits, g, 4).ok());
}

TEST(BaselineTest, RandomDeterministicGivenSeed) {
  RandomGenerator gen_a(7);
  RandomGenerator gen_b(7);
  auto g1 = Figure5Graph();
  auto g2 = Figure5Graph();
  const auto h1 = gen_a.Generate(&g1, 5).ValueOrDie();
  const auto h2 = gen_b.Generate(&g2, 5).ValueOrDie();
  ASSERT_EQ(h1.size(), h2.size());
  for (size_t i = 0; i < h1.size(); ++i) EXPECT_EQ(h1[i].records, h2[i].records);
}

TEST(FactoryTest, CreatesEveryAlgorithm) {
  for (auto algo : {ClusterAlgorithm::kRandom, ClusterAlgorithm::kBfs, ClusterAlgorithm::kDfs,
                    ClusterAlgorithm::kApproximation, ClusterAlgorithm::kTwoTiered}) {
    auto generator = MakeClusterGenerator(algo);
    ASSERT_NE(generator, nullptr);
    EXPECT_EQ(generator->name(), ClusterAlgorithmName(algo));
  }
}

// ---------------------------------------------------------------------------
// Invariant sweep: Definition 1 holds for every generator on random graphs.
// ---------------------------------------------------------------------------

struct SweepCase {
  ClusterAlgorithm algorithm;
  uint64_t seed;
  uint32_t n;
  double density;
  uint32_t k;
};

class GeneratorInvariants : public ::testing::TestWithParam<SweepCase> {};

TEST_P(GeneratorInvariants, DefinitionOneHolds) {
  const auto& p = GetParam();
  const auto edges = RandomEdges(p.seed, p.n, p.density);
  auto g = graph::PairGraph::Create(p.n, edges).ValueOrDie();
  ClusterGeneratorOptions options;
  options.seed = p.seed * 31 + 1;
  auto generator = MakeClusterGenerator(p.algorithm, options);
  auto hits = generator->Generate(&g, p.k);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_FALSE(g.HasAliveEdges());  // generator consumed every pair
  g.Reset();
  EXPECT_TRUE(ValidateClusterCover(*hits, g, p.k).ok());
}

std::vector<SweepCase> MakeSweep() {
  std::vector<SweepCase> cases;
  const ClusterAlgorithm algos[] = {ClusterAlgorithm::kRandom, ClusterAlgorithm::kBfs,
                                    ClusterAlgorithm::kDfs, ClusterAlgorithm::kApproximation,
                                    ClusterAlgorithm::kTwoTiered};
  int seed = 1;
  for (auto algo : algos) {
    for (uint32_t n : {12u, 40u}) {
      for (double density : {0.05, 0.25}) {
        for (uint32_t k : {3u, 5u, 10u}) {
          cases.push_back({algo, static_cast<uint64_t>(seed++), n, density, k});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GeneratorInvariants, ::testing::ValuesIn(MakeSweep()));

// ---------------------------------------------------------------------------
// Relative quality: two-tiered should not lose to the baselines.
// ---------------------------------------------------------------------------

TEST(GeneratorQualityTest, TwoTieredBeatsOrTiesBaselinesOnRandomGraphs) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    const auto edges = RandomEdges(seed, 60, 0.08);
    auto count_hits = [&](ClusterAlgorithm algo) {
      auto g = graph::PairGraph::Create(60, edges).ValueOrDie();
      ClusterGeneratorOptions options;
      options.seed = seed;
      auto hits = MakeClusterGenerator(algo, options)->Generate(&g, 10);
      return hits.ValueOrDie().size();
    };
    const size_t two_tiered = count_hits(ClusterAlgorithm::kTwoTiered);
    EXPECT_LE(two_tiered, count_hits(ClusterAlgorithm::kRandom));
    EXPECT_LE(two_tiered, count_hits(ClusterAlgorithm::kApproximation));
  }
}

// ---------------------------------------------------------------------------
// Packing unit tests.
// ---------------------------------------------------------------------------

TEST(PackingTest, MergesDisjointSccs) {
  const std::vector<std::vector<uint32_t>> sccs{{0, 1}, {2, 3}};
  auto hits = PackSccs(sccs, 4);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].records, (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(PackingTest, SharedVerticesDeduplicated) {
  // Overlapping SCCs (partitioning can produce them) merge without blowing
  // the record count.
  const std::vector<std::vector<uint32_t>> sccs{{0, 1, 2}, {2, 3}};
  auto hits = PackSccs(sccs, 5);
  ASSERT_TRUE(hits.ok());
  // The ILP sees sizes 3 and 2 (sum 5 <= k) and may pack them together.
  for (const auto& hit : *hits) EXPECT_LE(hit.records.size(), 5u);
}

TEST(PackingTest, RejectsOversizedScc) {
  EXPECT_FALSE(PackSccs({{0, 1, 2, 3, 4}}, 4).ok());
}

TEST(PackingTest, RejectsEmptyScc) {
  EXPECT_FALSE(PackSccs({{}}, 4).ok());
}

TEST(PackingTest, EmptyInputOk) {
  auto hits = PackSccs({}, 4);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits->empty());
}

TEST(PackingTest, StrategiesAgreeOnBinCountForEasyInstance) {
  // Sizes {4,4,2,2} with k=4: ILP and FFD both need 3 bins.
  const std::vector<std::vector<uint32_t>> sccs{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}, {10, 11}};
  PackingOptions ilp;
  PackingOptions ffd;
  ffd.strategy = PackingStrategy::kFfd;
  EXPECT_EQ(PackSccs(sccs, 4, ilp).ValueOrDie().size(), 3u);
  EXPECT_EQ(PackSccs(sccs, 4, ffd).ValueOrDie().size(), 3u);
}

TEST(PackingTest, EveryRecordLandsInExactlyOneHitForDisjointSccs) {
  std::vector<std::vector<uint32_t>> sccs;
  uint32_t next = 0;
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    std::vector<uint32_t> scc;
    const uint32_t size = 1 + static_cast<uint32_t>(rng.Uniform(6));
    for (uint32_t j = 0; j < size; ++j) scc.push_back(next++);
    sccs.push_back(std::move(scc));
  }
  auto hits = PackSccs(sccs, 6);
  ASSERT_TRUE(hits.ok());
  std::vector<int> seen(next, 0);
  for (const auto& hit : *hits) {
    EXPECT_LE(hit.records.size(), 6u);
    for (uint32_t r : hit.records) ++seen[r];
  }
  for (uint32_t r = 0; r < next; ++r) EXPECT_EQ(seen[r], 1) << "record " << r;
}

}  // namespace
}  // namespace hitgen
}  // namespace crowder

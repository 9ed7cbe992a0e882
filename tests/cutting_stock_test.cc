// Tests for the cutting-stock solver, including the paper's §5.3 worked
// example and optimality checks against brute force.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>

#include "common/rng.h"
#include "lp/cutting_stock.h"

namespace crowder {
namespace lp {
namespace {

// Independent brute-force min-bins for verification: fills one maximal-ish
// bin at a time over all subsets (sizes expanded into items).
uint32_t BruteForceBins(uint32_t capacity, const std::vector<uint32_t>& demands) {
  std::vector<uint32_t> items;
  for (size_t j = 0; j < demands.size(); ++j) {
    items.insert(items.end(), demands[j], static_cast<uint32_t>(j + 1));
  }
  if (items.empty()) return 0;
  uint32_t best = static_cast<uint32_t>(items.size());
  std::vector<uint32_t> bins;  // residual capacity per open bin
  std::function<void(size_t)> go = [&](size_t idx) {
    if (bins.size() >= best) return;
    if (idx == items.size()) {
      best = std::min(best, static_cast<uint32_t>(bins.size()));
      return;
    }
    // Symmetry breaking: try distinct residuals only.
    for (size_t b = 0; b < bins.size(); ++b) {
      bool dup = false;
      for (size_t b2 = 0; b2 < b; ++b2) dup |= (bins[b2] == bins[b]);
      if (dup || bins[b] < items[idx]) continue;
      bins[b] -= items[idx];
      go(idx + 1);
      bins[b] += items[idx];
    }
    bins.push_back(capacity - items[idx]);
    go(idx + 1);
    bins.pop_back();
  };
  go(0);
  return best;
}

uint64_t TotalSlots(const CuttingStockResult& r, size_t size_index) {
  uint64_t total = 0;
  for (size_t p = 0; p < r.patterns.size(); ++p) {
    total += static_cast<uint64_t>(r.patterns[p][size_index]) * r.counts[p];
  }
  return total;
}

TEST(CuttingStockTest, PaperExampleSection53) {
  // §5.3: SCCs {4,4,2,2} with k=4: c2=2, c4=2 -> optimal 3 HITs
  // (two [0,0,0,1] bins and one [0,2,0,0] bin).
  std::vector<uint32_t> demands{0, 2, 0, 2};
  auto r = SolveCuttingStock(4, demands);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_bins, 3u);
  EXPECT_TRUE(r->proven_optimal);
  EXPECT_GE(TotalSlots(*r, 1), 2u);  // both size-2 SCCs placed
  EXPECT_GE(TotalSlots(*r, 3), 2u);  // both size-4 SCCs placed
}

TEST(CuttingStockTest, EmptyDemands) {
  auto r = SolveCuttingStock(10, {0, 0, 0});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_bins, 0u);
  EXPECT_TRUE(r->proven_optimal);
}

TEST(CuttingStockTest, OversizedDemandRejected) {
  auto r = SolveCuttingStock(3, {0, 0, 0, 1});  // size 4 > capacity 3
  EXPECT_FALSE(r.ok());
}

TEST(CuttingStockTest, ZeroCapacityRejected) {
  EXPECT_FALSE(SolveCuttingStock(0, {1}).ok());
}

TEST(CuttingStockTest, PerfectPacking) {
  // 10 items of size 1, capacity 5 -> exactly 2 bins.
  auto r = SolveCuttingStock(5, {10});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_bins, 2u);
  EXPECT_NEAR(r->lp_bound, 2.0, 1e-6);
}

TEST(CuttingStockTest, LpBoundIsLowerBound) {
  auto r = SolveCuttingStock(7, {3, 2, 4, 0, 1, 0, 2});
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->lp_bound, static_cast<double>(r->num_bins) + 1e-6);
}

TEST(CuttingStockTest, CappedColumnGenerationBoundStaysBelowTheOptimum) {
  // One master round leaves an upper bound on the LP optimum; reported as
  // the bound, it would prove 4 bins optimal here, where 3 bins suffice.
  const std::vector<uint32_t> demands{0, 0, 4, 3, 0, 1, 0, 0, 0, 0};
  ASSERT_EQ(BruteForceBins(10, demands), 3u);
  CuttingStockOptions options;
  options.max_colgen_rounds = 1;
  auto r = SolveCuttingStock(10, demands, options);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->lp_bound, 3.0 + 1e-6);
  if (r->proven_optimal) {
    EXPECT_EQ(r->num_bins, 3u);
  }
}

TEST(CuttingStockTest, RecordedBenchmarkInstanceStopsAtTheLpBound) {
  // Product ×6 at threshold 0.3 and k = 10 (the repository benchmark's
  // hybrid_cluster input at seed 0). First-fit decreasing is 6 bins above
  // ⌈LP⌉ = 1,234; the search's first descent reaches it, and the search
  // stops there instead of spending its node budget on 1,233.
  auto r = SolveCuttingStock(10, {0, 2847, 195, 228, 71, 61, 22, 31, 20, 382});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_bins, 1234u);
  EXPECT_TRUE(r->proven_optimal);
  EXPECT_LE(r->search_nodes, 1235u);
}

TEST(CuttingStockTest, RecordedProductInstanceReachesTheLpBoundByRounding) {
  // The library's Product dataset (2,173 records) at threshold 0.3 and
  // k = 10. The first descent misses ⌈LP⌉ = 174, and a full search budget
  // does not find it (175 bins, not proven); rounding the LP down and
  // packing the residual does.
  auto r = SolveCuttingStock(10, {0, 731, 25, 24, 9, 3, 0, 2, 1, 1});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_bins, 174u);
  EXPECT_TRUE(r->proven_optimal);
}

TEST(CuttingStockTest, FfdFallbackWhenExactDisabled) {
  CuttingStockOptions options;
  options.exact = false;
  auto r = SolveCuttingStock(10, {5, 3, 2, 1}, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->num_bins, 0u);
}

TEST(FirstFitDecreasingTest, RespectsCapacity) {
  auto bins = FirstFitDecreasing(10, {7, 5, 3, 3, 2});
  ASSERT_TRUE(bins.ok());
  for (const auto& bin : *bins) {
    uint32_t used = 0;
    const std::vector<uint32_t> sizes{7, 5, 3, 3, 2};
    for (uint32_t idx : bin) used += sizes[idx];
    EXPECT_LE(used, 10u);
  }
  // All items placed exactly once.
  size_t placed = 0;
  for (const auto& bin : *bins) placed += bin.size();
  EXPECT_EQ(placed, 5u);
}

TEST(FirstFitDecreasingTest, ClassicExample) {
  // 7,5,3,3,2 with capacity 10 -> [7,3], [5,3,2]: two bins.
  auto bins = FirstFitDecreasing(10, {7, 5, 3, 3, 2});
  ASSERT_TRUE(bins.ok());
  EXPECT_EQ(bins->size(), 2u);
}

TEST(FirstFitDecreasingTest, RejectsOversizedAndZeroItems) {
  EXPECT_FALSE(FirstFitDecreasing(5, {6}).ok());
  EXPECT_FALSE(FirstFitDecreasing(5, {0}).ok());
}

TEST(FirstFitDecreasingTest, EmptyItems) {
  auto bins = FirstFitDecreasing(5, {});
  ASSERT_TRUE(bins.ok());
  EXPECT_TRUE(bins->empty());
}

// Property sweep: ILP solution is valid (covers demand, respects capacity)
// and optimal versus brute force on small random instances.
struct CsCase {
  uint64_t seed;
  uint32_t capacity;
};

class CuttingStockRandom : public ::testing::TestWithParam<CsCase> {};

std::vector<uint32_t> RandomDemands(uint64_t seed, uint32_t capacity) {
  Rng rng(seed);
  std::vector<uint32_t> demands(capacity, 0);
  const size_t kinds = 1 + rng.Uniform(std::min<uint32_t>(capacity, 4));
  uint32_t total_items = 0;
  for (size_t k = 0; k < kinds; ++k) {
    const size_t j = rng.Uniform(capacity);
    const uint32_t c = 1 + static_cast<uint32_t>(rng.Uniform(4));
    demands[j] += c;
    total_items += c;
  }
  if (total_items > 10) {  // keep brute force tractable
    demands.assign(capacity, 0);
    demands[0] = 6;
    demands[capacity - 1] = 2;
  }
  return demands;
}

TEST_P(CuttingStockRandom, ValidAndOptimal) {
  const uint32_t capacity = GetParam().capacity;
  const std::vector<uint32_t> demands = RandomDemands(GetParam().seed, capacity);

  auto r = SolveCuttingStock(capacity, demands);
  ASSERT_TRUE(r.ok());

  // Validity: pattern weights within capacity; slots cover demand.
  for (const auto& pattern : r->patterns) {
    EXPECT_LE(PatternWeight(pattern), capacity);
  }
  for (size_t j = 0; j < demands.size(); ++j) {
    if (demands[j] > 0) {
      EXPECT_GE(TotalSlots(*r, j), demands[j]);
    }
  }

  // Optimality.
  const uint32_t brute = BruteForceBins(capacity, demands);
  EXPECT_EQ(r->num_bins, brute);
  EXPECT_TRUE(r->proven_optimal);
}

// With the column-generation round cap binding, the master's value is only
// an upper bound on the LP optimum; lp_bound must still be a lower bound on
// the optimum, and proven_optimal must still mean optimal.
TEST_P(CuttingStockRandom, CappedColumnGenerationKeepsAValidBound) {
  const uint32_t capacity = GetParam().capacity;
  const std::vector<uint32_t> demands = RandomDemands(GetParam().seed, capacity);
  const uint32_t brute = BruteForceBins(capacity, demands);
  for (int rounds : {1, 2, 3}) {
    CuttingStockOptions options;
    options.max_colgen_rounds = rounds;
    auto r = SolveCuttingStock(capacity, demands, options);
    ASSERT_TRUE(r.ok());
    EXPECT_LE(r->lp_bound, brute + 1e-6) << "rounds=" << rounds;
    if (r->proven_optimal) {
      EXPECT_EQ(r->num_bins, brute) << "rounds=" << rounds;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CuttingStockRandom,
    ::testing::Values(CsCase{1, 4}, CsCase{2, 4}, CsCase{3, 5}, CsCase{4, 5}, CsCase{5, 6},
                      CsCase{6, 6}, CsCase{7, 7}, CsCase{8, 8}, CsCase{9, 8}, CsCase{10, 10},
                      CsCase{11, 10}, CsCase{12, 12}, CsCase{13, 12}, CsCase{14, 15},
                      CsCase{15, 15}, CsCase{16, 20}, CsCase{17, 20}, CsCase{18, 9},
                      CsCase{19, 11}, CsCase{20, 13}));

TEST(CuttingStockTest, IlpNeverWorseThanFfdOnLargerInstances) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const uint32_t capacity = 10;
    std::vector<uint32_t> demands(capacity, 0);
    for (size_t j = 0; j < capacity; ++j) {
      demands[j] = static_cast<uint32_t>(rng.Uniform(20));
    }
    auto r = SolveCuttingStock(capacity, demands);
    ASSERT_TRUE(r.ok());

    std::vector<uint32_t> items;
    for (size_t j = 0; j < demands.size(); ++j) {
      items.insert(items.end(), demands[j], static_cast<uint32_t>(j + 1));
    }
    auto ffd = FirstFitDecreasing(capacity, items);
    ASSERT_TRUE(ffd.ok());
    EXPECT_LE(r->num_bins, ffd->size());
  }
}

// ---------------------------------------------------------------------------
// References: first-fit decreasing by linear scan, and the branch-and-bound
// without the move cache or the stop at the LP bound, as SolveCuttingStock
// ran them before. The sweeps below hold the solver to them.
// ---------------------------------------------------------------------------

std::vector<std::vector<uint32_t>> ReferenceFirstFitDecreasing(
    uint32_t capacity, const std::vector<uint32_t>& item_sizes) {
  std::vector<uint32_t> order(item_sizes.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return item_sizes[a] > item_sizes[b]; });
  std::vector<std::vector<uint32_t>> bins;
  std::vector<uint32_t> slack;
  for (uint32_t idx : order) {
    const uint32_t s = item_sizes[idx];
    size_t b = 0;
    while (b < bins.size() && slack[b] < s) ++b;
    if (b == bins.size()) {
      bins.emplace_back();
      slack.push_back(capacity);
    }
    bins[b].push_back(idx);
    slack[b] -= s;
  }
  return bins;
}

void ReferenceMaximalPatterns(uint32_t capacity, const std::vector<uint32_t>& remaining,
                              size_t size_index, Pattern* current, std::vector<Pattern>* out) {
  if (size_index == static_cast<size_t>(-1) || size_index >= remaining.size()) {
    const uint32_t used = PatternWeight(*current);
    for (size_t j = 0; j < remaining.size(); ++j) {
      const uint32_t item = static_cast<uint32_t>(j + 1);
      if (remaining[j] > (*current)[j] && used + item <= capacity) return;
    }
    if (used > 0) out->push_back(*current);
    return;
  }
  const uint32_t item = static_cast<uint32_t>(size_index + 1);
  const uint32_t fit = (capacity - PatternWeight(*current)) / item;
  const uint32_t max_count = std::min<uint32_t>(remaining[size_index], fit);
  for (uint32_t c = max_count;; --c) {
    (*current)[size_index] = c;
    ReferenceMaximalPatterns(capacity, remaining,
                             size_index == 0 ? static_cast<size_t>(-1) : size_index - 1, current,
                             out);
    if (c == 0) break;
  }
  (*current)[size_index] = 0;
}

uint32_t ReferenceVolumeBound(uint32_t capacity, const std::vector<uint32_t>& remaining) {
  uint64_t total = 0;
  for (size_t j = 0; j < remaining.size(); ++j) {
    total += static_cast<uint64_t>(remaining[j]) * (j + 1);
  }
  return static_cast<uint32_t>((total + capacity - 1) / capacity);
}

// The budgeted DFS, unmemoized and unstopped. It also records whether its
// first descent (fullest bin first, down to the first leaf or pruned node)
// ended at a leaf that reaches `round_up`.
class ReferenceSearch {
 public:
  ReferenceSearch(uint32_t capacity, uint32_t round_up, int node_budget)
      : capacity_(capacity), round_up_(round_up), node_budget_(node_budget) {}

  uint32_t Solve(const std::vector<uint32_t>& demand, uint32_t upper_bound,
                 std::vector<Pattern>* solution) {
    best_ = upper_bound;
    Dfs(demand, 0);
    *solution = best_chain_;
    return best_;
  }

  bool exhausted() const { return nodes_ >= node_budget_; }
  bool first_descent_reached_bound() const { return first_descent_reached_bound_; }
  int descent_nodes() const { return descent_nodes_; }

 private:
  void Dfs(const std::vector<uint32_t>& demand, uint32_t used_bins) {
    if (nodes_ >= node_budget_) {
      descent_over_ = true;
      return;
    }
    ++nodes_;
    const uint32_t lb = ReferenceVolumeBound(capacity_, demand);
    if (lb == 0) {
      if (!descent_over_) {
        first_descent_reached_bound_ = used_bins <= round_up_;
        descent_nodes_ = nodes_;
      }
      descent_over_ = true;
      if (used_bins < best_) {
        best_ = used_bins;
        best_chain_ = chain_;
      }
      return;
    }
    if (used_bins + lb >= best_) {
      descent_over_ = true;
      return;
    }
    std::vector<Pattern> moves;
    Pattern scratch(demand.size(), 0);
    ReferenceMaximalPatterns(capacity_, demand, demand.size() - 1, &scratch, &moves);
    std::sort(moves.begin(), moves.end(), [](const Pattern& a, const Pattern& b) {
      return PatternWeight(a) > PatternWeight(b);
    });
    for (const Pattern& mv : moves) {
      std::vector<uint32_t> next = demand;
      for (size_t j = 0; j < next.size(); ++j) next[j] -= std::min(next[j], mv[j]);
      chain_.push_back(mv);
      Dfs(next, used_bins + 1);
      chain_.pop_back();
      if (used_bins + lb >= best_) return;
      if (nodes_ >= node_budget_) return;
    }
  }

  uint32_t capacity_;
  uint32_t round_up_;
  int node_budget_;
  int nodes_ = 0;
  bool descent_over_ = false;
  bool first_descent_reached_bound_ = false;
  int descent_nodes_ = 0;
  uint32_t best_ = UINT32_MAX;
  std::vector<Pattern> chain_;
  std::vector<Pattern> best_chain_;
};

struct VectorHash {
  size_t operator()(const std::vector<uint32_t>& v) const {
    size_t h = 1469598103934665603ULL;
    for (uint32_t x : v) {
      h ^= x;
      h *= 1099511628211ULL;
    }
    return h;
  }
};

struct ReferencePacking {
  uint32_t num_bins = 0;
  std::vector<Pattern> patterns;
  std::vector<uint32_t> counts;
  bool proven_optimal = false;
  // FFD met the bound, or the search's first descent reached it.
  bool reached_bound_early = false;
  // Nodes the search had visited when its first descent ended (0 if FFD
  // met the bound).
  int descent_nodes = 0;
};

// The packing as SolveCuttingStock chose it before, given the LP bound
// (column generation is unchanged when it converges).
ReferencePacking ReferenceSolve(uint32_t capacity, const std::vector<uint32_t>& demands,
                                double lp_bound, const CuttingStockOptions& options) {
  const auto round_up = static_cast<uint32_t>(std::ceil(lp_bound - options.eps));
  std::vector<uint32_t> items;
  for (size_t j = 0; j < demands.size(); ++j) {
    items.insert(items.end(), demands[j], static_cast<uint32_t>(j + 1));
  }
  std::vector<Pattern> ffd;
  for (const auto& bin : ReferenceFirstFitDecreasing(capacity, items)) {
    Pattern p(demands.size(), 0);
    for (uint32_t idx : bin) ++p[items[idx] - 1];
    ffd.push_back(std::move(p));
  }

  ReferencePacking out;
  const std::vector<Pattern>* bins = &ffd;
  std::vector<Pattern> searched;
  if (ffd.size() <= round_up) {
    out.proven_optimal = true;
    out.reached_bound_early = true;
  } else {
    ReferenceSearch search(capacity, round_up, options.max_bb_nodes);
    const uint32_t best = search.Solve(demands, static_cast<uint32_t>(ffd.size()), &searched);
    out.reached_bound_early = search.first_descent_reached_bound();
    out.descent_nodes = search.descent_nodes();
    out.proven_optimal = !search.exhausted();
    if (!searched.empty() && best < ffd.size()) {
      bins = &searched;
      out.proven_optimal = out.proven_optimal || best <= round_up;
    }
  }
  out.num_bins = static_cast<uint32_t>(bins->size());
  std::unordered_map<std::vector<uint32_t>, uint32_t, VectorHash> tally;
  for (const Pattern& p : *bins) ++tally[p];
  for (auto& [pattern, count] : tally) {
    out.patterns.push_back(pattern);
    out.counts.push_back(count);
  }
  return out;
}

TEST(FirstFitDecreasingTest, SegmentTreeMatchesTheLinearScan) {
  Rng rng(4242);
  for (int trial = 0; trial < 400; ++trial) {
    const auto capacity = 1 + static_cast<uint32_t>(rng.Uniform(60));
    const size_t n = rng.Uniform(300);
    std::vector<uint32_t> sizes(n);
    switch (trial % 4) {
      case 0:  // all equal
        std::fill(sizes.begin(), sizes.end(), 1 + static_cast<uint32_t>(rng.Uniform(capacity)));
        break;
      case 1:  // capacity-sized items among small ones
        for (auto& s : sizes) {
          s = rng.Bernoulli(0.5) ? capacity : 1 + static_cast<uint32_t>(rng.Uniform(capacity));
        }
        break;
      default:
        for (auto& s : sizes) s = 1 + static_cast<uint32_t>(rng.Uniform(capacity));
        break;
    }
    auto bins = FirstFitDecreasing(capacity, sizes);
    ASSERT_TRUE(bins.ok());
    ASSERT_EQ(*bins, ReferenceFirstFitDecreasing(capacity, sizes))
        << "trial " << trial << " capacity " << capacity;
  }
}

TEST(CuttingStockTest, MatchesTheReferenceWhereItsFirstDescentReachesTheBound) {
  Rng rng(2012);
  CuttingStockOptions options;
  options.max_bb_nodes = 4000;  // the same budget for both; the reference is slow
  int identical = 0;
  int searched_identical = 0;
  int elsewhere = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const auto capacity = 2 + static_cast<uint32_t>(rng.Uniform(49));
    std::vector<uint32_t> demands(capacity, 0);
    const size_t kinds = 1 + rng.Uniform(std::min<uint32_t>(capacity, 6));
    for (size_t i = 0; i < kinds; ++i) {
      demands[rng.Uniform(capacity)] += 1 + static_cast<uint32_t>(rng.Uniform(60));
    }
    auto r = SolveCuttingStock(capacity, demands, options);
    ASSERT_TRUE(r.ok());
    const ReferencePacking ref = ReferenceSolve(capacity, demands, r->lp_bound, options);
    EXPECT_LE(r->lp_bound, r->num_bins + 1e-6);
    if (ref.reached_bound_early) {
      ASSERT_EQ(r->num_bins, ref.num_bins) << "trial " << trial;
      ASSERT_EQ(r->patterns, ref.patterns) << "trial " << trial;
      ASSERT_EQ(r->counts, ref.counts) << "trial " << trial;
      EXPECT_EQ(r->proven_optimal, ref.proven_optimal) << "trial " << trial;
      // The search stops at the leaf that reaches the bound, and nothing
      // else runs: no node past the first descent, no residual rounding.
      EXPECT_EQ(r->search_nodes, static_cast<uint64_t>(ref.descent_nodes)) << "trial " << trial;
      ++identical;
      if (r->search_nodes > 0) ++searched_identical;
    } else {
      EXPECT_LE(r->num_bins, ref.num_bins) << "trial " << trial;
      EXPECT_TRUE(r->proven_optimal || !ref.proven_optimal) << "trial " << trial;
      ++elsewhere;
    }
  }
  // The sweep must reach the search, not only first-fit decreasing, and
  // the rounding path too.
  EXPECT_GE(identical, 900);
  EXPECT_GE(searched_identical, 30);
  EXPECT_GE(elsewhere, 10);
}

TEST(CuttingStockTest, RecordedBenchmarkInstanceMatchesTheReference) {
  // The reference's first descent reaches ⌈LP⌉ = 1,234 at its 1,235th node,
  // so at any budget above that the packings must be identical.
  const std::vector<uint32_t> demands{0, 2847, 195, 228, 71, 61, 22, 31, 20, 382};
  CuttingStockOptions options;
  options.max_bb_nodes = 2000;
  auto r = SolveCuttingStock(10, demands, options);
  ASSERT_TRUE(r.ok());
  const ReferencePacking ref = ReferenceSolve(10, demands, r->lp_bound, options);
  ASSERT_TRUE(ref.reached_bound_early);
  EXPECT_EQ(r->num_bins, ref.num_bins);
  EXPECT_EQ(r->patterns, ref.patterns);
  EXPECT_EQ(r->counts, ref.counts);
}

}  // namespace
}  // namespace lp
}  // namespace crowder

#include "lp/cutting_stock.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <memory>
#include <unordered_map>

#include "common/logging.h"
#include "lp/knapsack.h"
#include "lp/simplex.h"

namespace crowder {
namespace lp {

uint32_t PatternWeight(const Pattern& pattern) {
  uint32_t w = 0;
  for (size_t j = 0; j < pattern.size(); ++j) {
    w += pattern[j] * static_cast<uint32_t>(j + 1);
  }
  return w;
}

namespace {

// Max-slack segment tree over bins in opening order. Leaf b holds bin b's
// slack and bins not yet opened hold 0, so the leftmost bin an item fits is
// one root-to-leaf walk: the bin a linear first-fit scan would pick.
class SlackTree {
 public:
  explicit SlackTree(size_t max_bins) {
    while (leaves_ < max_bins) leaves_ *= 2;
    max_slack_.assign(2 * leaves_, 0);
  }

  // Leftmost bin with slack >= size, or SIZE_MAX when none fits.
  size_t FirstFit(uint32_t size) const {
    if (max_slack_[1] < size) return SIZE_MAX;
    size_t node = 1;
    while (node < leaves_) {
      node = max_slack_[2 * node] >= size ? 2 * node : 2 * node + 1;
    }
    return node - leaves_;
  }

  uint32_t Slack(size_t bin) const { return max_slack_[leaves_ + bin]; }

  void Set(size_t bin, uint32_t slack) {
    size_t node = leaves_ + bin;
    max_slack_[node] = slack;
    for (node /= 2; node > 0; node /= 2) {
      max_slack_[node] = std::max(max_slack_[2 * node], max_slack_[2 * node + 1]);
    }
  }

 private:
  size_t leaves_ = 1;
  std::vector<uint32_t> max_slack_;
};

// First-fit decreasing over sizes already checked to lie in [1, capacity].
std::vector<std::vector<uint32_t>> PackFirstFit(uint32_t capacity,
                                                const std::vector<uint32_t>& item_sizes) {
  std::vector<uint32_t> order(item_sizes.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return item_sizes[a] > item_sizes[b]; });

  std::vector<std::vector<uint32_t>> bins;
  SlackTree tree(item_sizes.size());
  for (uint32_t idx : order) {
    const uint32_t s = item_sizes[idx];
    size_t b = tree.FirstFit(s);
    if (b == SIZE_MAX) {
      b = bins.size();
      bins.emplace_back();
      tree.Set(b, capacity);
    }
    bins[b].push_back(idx);
    tree.Set(b, tree.Slack(b) - s);
  }
  return bins;
}

// One pattern per bin of first-fit decreasing over the items `demand`
// describes (demand[j] items of size j+1).
std::vector<Pattern> FirstFitPatterns(uint32_t capacity, const std::vector<uint32_t>& demand) {
  std::vector<uint32_t> items;
  for (size_t j = 0; j < demand.size(); ++j) {
    items.insert(items.end(), demand[j], static_cast<uint32_t>(j + 1));
  }
  std::vector<Pattern> patterns;
  for (const auto& bin : PackFirstFit(capacity, items)) {
    Pattern p(demand.size(), 0);
    for (uint32_t idx : bin) ++p[items[idx] - 1];
    patterns.push_back(std::move(p));
  }
  return patterns;
}

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

// The LP relaxation as column generation leaves it.
struct LpRelaxation {
  // A valid lower bound on the bin count (see SolveLpByColumnGeneration).
  double bound = 0.0;
  // The last restricted master's columns and its primal values.
  std::vector<Pattern> columns;
  std::vector<double> x;
};

// Solves the LP relaxation by column generation over the master rows
// `active` (0-based size indices: size = index+1). `bound` is the LP optimum
// when pricing finds no improving column. When the round cap stops the loop
// first, the master's value is only an upper bound on the LP optimum, so
// `bound` is Farley's: the master's value over the last pricing value, the
// dual objective of the master's duals scaled down until every pattern
// prices out.
Result<LpRelaxation> SolveLpByColumnGeneration(uint32_t capacity,
                                               const std::vector<uint32_t>& demands,
                                               const std::vector<size_t>& active,
                                               const CuttingStockOptions& options) {
  LpRelaxation lp;
  // Seed columns: for each active size, a bin packed with copies of it.
  for (size_t j : active) {
    Pattern p(demands.size(), 0);
    p[j] = capacity / static_cast<uint32_t>(j + 1);
    lp.columns.push_back(std::move(p));
  }

  for (int round = 0; round < options.max_colgen_rounds; ++round) {
    LpProblem master;
    master.objective.assign(lp.columns.size(), 1.0);
    master.constraints.reserve(active.size());
    for (size_t j : active) {
      LpConstraint con;
      con.sense = Sense::kGe;
      con.rhs = static_cast<double>(demands[j]);
      con.coeffs.resize(lp.columns.size());
      for (size_t i = 0; i < lp.columns.size(); ++i) {
        con.coeffs[i] = static_cast<double>(lp.columns[i][j]);
      }
      master.constraints.push_back(std::move(con));
    }
    CROWDER_ASSIGN_OR_RETURN(LpSolution sol, SolveLp(master));
    lp.x = std::move(sol.x);

    // Pricing: most violated pattern under the duals.
    std::vector<double> values(capacity, 0.0);
    for (size_t row = 0; row < active.size(); ++row) {
      values[active[row]] = sol.duals[row];
    }
    CROWDER_ASSIGN_OR_RETURN(KnapsackSolution priced, SolveUnboundedKnapsack(capacity, values));
    if (priced.value <= 1.0 + options.eps) {
      lp.bound = sol.objective;  // no improving column: LP optimal
      return lp;
    }
    lp.bound = sol.objective / priced.value;
    if (round + 1 == options.max_colgen_rounds) break;
    Pattern p(demands.size(), 0);
    for (size_t j = 0; j < priced.counts.size() && j < p.size(); ++j) p[j] = priced.counts[j];
    lp.columns.push_back(std::move(p));
  }
  CROWDER_LOG(Warning) << "column generation hit round cap; using Farley's lower bound";
  return lp;
}

uint32_t SimpleLowerBound(uint32_t capacity, const std::vector<uint32_t>& remaining) {
  uint64_t total = 0;
  for (size_t j = 0; j < remaining.size(); ++j) {
    total += static_cast<uint64_t>(remaining[j]) * (j + 1);
  }
  return static_cast<uint32_t>((total + capacity - 1) / capacity);
}

// A search node's moves: the maximal patterns of its demand (no item with
// demand left fits the bin's slack), fullest first. The order is fixed: the
// order in which a walk deciding sizes from largest to smallest, larger
// counts first, meets the patterns, then std::sort by weight, descending.
//
// The sort is not stable, so the order among equal weights is std::sort's
// permutation of the walk's sequence. Sorting (weight, position) pairs by
// weight replays the comparisons sorting the patterns would make, so it
// yields the same permutation without holding the patterns. Only the first
// move is stored up front: the first descent takes it and most lists are
// never asked for another. The rest are stored, sparsely, on first use.
//
// The walk carries the weight so far and the smallest open size (one
// decided below its demand), so a leaf's maximality test is O(1): the slack
// left must be smaller than the smallest open size. It jumps straight to
// the largest size that fits the slack, and skips a subtree whose smaller
// sizes cannot fill the slack below the smallest open size.
class MoveList {
 public:
  struct Item {
    uint32_t size_index;
    uint32_t count;
  };
  struct Move {
    const Item* begin;
    const Item* end;
  };

  MoveList(uint32_t capacity, std::vector<uint32_t> demand)
      : capacity_(capacity), demand_(std::move(demand)), fill_below_(demand_.size() + 1, 0) {
    for (size_t j = 0; j < demand_.size(); ++j) {
      fill_below_[j + 1] =
          std::min<uint64_t>(capacity, fill_below_[j] + uint64_t{demand_[j]} * (j + 1));
    }
    struct Ranked {
      uint32_t weight;
      uint32_t position;
    };
    std::vector<Ranked> ranked;
    Walk</*kTrackPath=*/false>([&](uint32_t weight) {
      ranked.push_back({weight, static_cast<uint32_t>(ranked.size())});
      return true;
    });
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked& a, const Ranked& b) { return a.weight > b.weight; });
    order_.reserve(ranked.size());
    for (const Ranked& r : ranked) order_.push_back(r.position);
    if (order_.empty()) return;
    uint32_t position = 0;
    Walk</*kTrackPath=*/true>([&](uint32_t) {
      if (position++ < order_[0]) return true;
      first_ = path_;
      return false;
    });
  }

  size_t size() const { return order_.size(); }

  Move Get(size_t i) {
    if (i == 0) return {first_.data(), first_.data() + first_.size()};
    if (offsets_.empty()) {
      offsets_.push_back(0);
      Walk</*kTrackPath=*/true>([&](uint32_t) {
        items_.insert(items_.end(), path_.begin(), path_.end());
        offsets_.push_back(static_cast<uint32_t>(items_.size()));
        return true;
      });
    }
    const uint32_t position = order_[i];
    return {items_.data() + offsets_[position], items_.data() + offsets_[position + 1]};
  }

 private:
  // Calls leaf(weight) at every maximal pattern, in walk order, with the
  // pattern's nonzero counts in path_ when kTrackPath is set; a leaf
  // returning false ends the walk.
  template <bool kTrackPath, typename Leaf>
  void Walk(Leaf leaf) {
    const size_t sizes = std::min<size_t>(demand_.size(), capacity_);
    if (sizes > 0) Visit<kTrackPath>(sizes, 0, UINT32_MAX, leaf);
  }

  // Sizes [0, undecided) are still to choose (undecided > 0); sizes above
  // are decided, and the caller has checked that a maximal pattern may lie
  // below.
  template <bool kTrackPath, typename Leaf>
  bool Visit(size_t undecided, uint32_t used, uint32_t min_open, Leaf& leaf) {
    const size_t j = undecided - 1;
    const auto item = static_cast<uint32_t>(undecided);
    const uint32_t slack = capacity_ - used;
    const uint32_t max_count = std::min(demand_[j], slack / item);
    for (uint32_t c = max_count;; --c) {
      const bool open = c < demand_[j];
      const uint32_t child_open = open ? std::min(min_open, item) : min_open;
      const uint32_t child_slack = slack - c * item;
      // Sizes above the slack get count 0, and whether they are open cannot
      // matter: the final slack is smaller than each of them.
      const size_t child_undecided = std::min<size_t>(j, child_slack);
      if (child_slack < fill_below_[child_undecided] + uint64_t{child_open}) {
        const uint32_t child_used = used + c * item;
        if (kTrackPath && c > 0) path_.push_back({static_cast<uint32_t>(j), c});
        const bool go_on = child_undecided > 0
                               ? Visit<kTrackPath>(child_undecided, child_used, child_open, leaf)
                               : child_used == 0 || leaf(child_used);
        if (kTrackPath && c > 0) path_.pop_back();
        if (!go_on) return false;
      } else if (open && child_undecided == j) {
        break;  // smaller counts leave more slack under the same bound
      }
      if (c == 0) break;
    }
    return true;
  }

  uint32_t capacity_;
  std::vector<uint32_t> demand_;
  // fill_below_[i] = most the sizes [0, i) can add to a bin.
  std::vector<uint64_t> fill_below_;
  std::vector<Item> path_;
  std::vector<uint32_t> order_;  // walk positions, fullest first
  std::vector<Item> first_;
  std::vector<Item> items_;        // every move, in walk order, once asked for
  std::vector<uint32_t> offsets_;  // move p is items_[offsets_[p], offsets_[p + 1])
};

// The search's move lists, memoized. A list reads no demand above
// floor(capacity / size) + 1 for a size: no pattern holds more, and a size
// is open whenever its demand exceeds its count. So the demand capped there
// is the key, and equal keys give equal lists.
class MoveCache {
 public:
  using Moves = std::shared_ptr<MoveList>;

  explicit MoveCache(uint32_t capacity) : capacity_(capacity) {}

  Moves Get(const std::vector<uint32_t>& demand) {
    std::vector<uint32_t> key(demand.size());
    for (size_t j = 0; j < demand.size(); ++j) {
      key[j] = std::min(demand[j], capacity_ / static_cast<uint32_t>(j + 1) + 1);
    }
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;

    auto list = std::make_shared<MoveList>(capacity_, key);
    // A long search can meet many distinct keys; start over rather than
    // let the cache outgrow a few megabytes. Searches in flight keep the
    // lists they hold.
    if (cached_moves_ + list->size() > kMaxCachedMoves) {
      cache_.clear();
      cached_moves_ = 0;
    }
    cached_moves_ += list->size();
    cache_.emplace(std::move(key), list);
    return list;
  }

 private:
  static constexpr size_t kMaxCachedMoves = size_t{1} << 18;

  uint32_t capacity_;
  std::unordered_map<std::vector<uint32_t>, Moves, VectorHash> cache_;
  size_t cached_moves_ = 0;
};

// Depth-first branch-and-bound: fill one maximal bin at a time, fullest
// first, pruned by the volume bound. `target` is a valid lower bound on the
// optimum, so the search stops as soon as its incumbent reaches it: the
// answer is then the first leaf in DFS order that reaches the bound. The
// path is an explicit stack, one frame per bin, since it can hold tens of
// thousands of bins.
class BinPackSearch {
 public:
  BinPackSearch(uint32_t capacity, uint32_t target, int node_budget, MoveCache* moves)
      : capacity_(capacity), target_(target), node_budget_(node_budget), moves_(moves) {}

  // Returns the best bin count found, or `upper_bound` when no packing
  // beats it; `solution` gets one pattern per bin of the packing found.
  // The first descent takes the fullest bin at every level until it meets
  // a leaf or a pruned node. If it ends short of the target,
  // `at_descent_end` (when set) runs once there; returning true stops the
  // search.
  uint32_t Solve(const std::vector<uint32_t>& demand, uint32_t upper_bound,
                 const std::function<bool()>& at_descent_end, std::vector<Pattern>* solution) {
    best_ = upper_bound;
    at_descent_end_ = &at_descent_end;
    Visit(demand);
    while (!stopped_ && !frames_.empty()) {
      Frame& top = frames_.back();
      const auto used_bins = static_cast<uint32_t>(frames_.size() - 1);
      if (top.next > 0) {  // back from the node below the last move taken
        chain_.pop_back();
        if (!descended_) EndDescent();
        if (stopped_) break;
        if (used_bins + top.lb >= best_ || nodes_ >= node_budget_) {
          frames_.pop_back();  // the incumbent matches the bound, or no budget
          continue;
        }
      }
      if (top.next == top.moves->size()) {
        frames_.pop_back();
        continue;
      }
      const MoveList::Move bin = top.moves->Get(top.next++);
      std::vector<uint32_t> next = top.demand;
      for (const MoveList::Item* it = bin.begin; it != bin.end; ++it) {
        next[it->size_index] -= std::min(next[it->size_index], it->count);
      }
      chain_.push_back(bin);
      Visit(std::move(next));  // may push a frame: `top` is stale from here
    }
    if (!descended_) EndDescent();  // the budget ran out first
    *solution = std::move(best_chain_);
    return best_;
  }

  bool exhausted() const { return nodes_ >= node_budget_; }
  int nodes() const { return nodes_; }

 private:
  // One bin of the path: the node's demand, its volume bound, its moves
  // and the next move to try.
  struct Frame {
    std::vector<uint32_t> demand;
    uint32_t lb;
    MoveCache::Moves moves;
    size_t next;
  };

  // Marks the first descent over; if it ended short of the target, runs
  // the hook, which may stop the search.
  void EndDescent() {
    descended_ = true;
    if (best_ > target_ && *at_descent_end_ && (*at_descent_end_)()) stopped_ = true;
  }

  // Counts a node below the current path. A leaf may become the incumbent;
  // an inner node that can still beat it becomes a frame.
  void Visit(std::vector<uint32_t> demand) {
    if (nodes_ >= node_budget_) return;
    ++nodes_;
    const auto used_bins = static_cast<uint32_t>(frames_.size());
    const uint32_t lb = SimpleLowerBound(capacity_, demand);
    if (lb == 0) {  // everything packed
      if (used_bins < best_) {
        best_ = used_bins;
        best_chain_.clear();
        for (const MoveList::Move& bin : chain_) {
          Pattern p(demand.size(), 0);
          for (const MoveList::Item* it = bin.begin; it != bin.end; ++it) {
            p[it->size_index] = it->count;
          }
          best_chain_.push_back(std::move(p));
        }
        stopped_ = best_ <= target_;
      }
      return;
    }
    if (used_bins + lb >= best_) return;  // cannot improve
    MoveCache::Moves moves = moves_->Get(demand);
    frames_.push_back({std::move(demand), lb, std::move(moves), 0});
  }

  uint32_t capacity_;
  uint32_t target_;
  int node_budget_;
  MoveCache* moves_;
  const std::function<bool()>* at_descent_end_ = nullptr;
  int nodes_ = 0;
  bool descended_ = false;
  bool stopped_ = false;
  uint32_t best_ = UINT32_MAX;
  std::vector<Frame> frames_;
  // The bins of the current path, inside lists the frames keep alive.
  std::vector<MoveList::Move> chain_;
  std::vector<Pattern> best_chain_;
};

// Residual rounding (Wäscher and Gau, 1996): floor(x) bins of every LP
// column, each trimmed to the demand still open, then the small residual
// packed by first-fit decreasing and the search. The residual search stops
// at its volume bound or once the total would reach `target`. Returns one
// pattern per bin; `nodes` gets the residual search's node count.
std::vector<Pattern> RoundLpDown(uint32_t capacity, const std::vector<uint32_t>& demands,
                                 const LpRelaxation& lp, uint32_t target,
                                 const CuttingStockOptions& options, MoveCache* moves,
                                 int* nodes) {
  std::vector<uint32_t> residual = demands;
  std::vector<Pattern> bins;
  for (size_t c = 0; c < lp.x.size(); ++c) {
    const auto copies = static_cast<uint64_t>(std::max(0.0, std::floor(lp.x[c] + options.eps)));
    for (uint64_t rep = 0; rep < copies; ++rep) {
      Pattern bin(residual.size(), 0);
      uint32_t filled = 0;
      for (size_t j = 0; j < residual.size(); ++j) {
        bin[j] = std::min(residual[j], lp.columns[c][j]);
        residual[j] -= bin[j];
        filled += bin[j];
      }
      if (filled == 0) break;
      bins.push_back(std::move(bin));
    }
  }

  std::vector<Pattern> rest = FirstFitPatterns(capacity, residual);
  const uint32_t affordable =
      target > bins.size() ? target - static_cast<uint32_t>(bins.size()) : 0;
  const uint32_t rest_target = std::max(SimpleLowerBound(capacity, residual), affordable);
  if (rest.size() > rest_target) {
    BinPackSearch search(capacity, rest_target, options.max_bb_nodes, moves);
    std::vector<Pattern> searched;
    const uint32_t found =
        search.Solve(residual, static_cast<uint32_t>(rest.size()), nullptr, &searched);
    *nodes = search.nodes();
    if (!searched.empty() && found < rest.size()) rest = std::move(searched);
  }
  bins.insert(bins.end(), std::make_move_iterator(rest.begin()),
              std::make_move_iterator(rest.end()));
  return bins;
}

// Aggregates a list of per-bin patterns into (distinct pattern, count) pairs.
void AggregatePatterns(const std::vector<Pattern>& bins, CuttingStockResult* result) {
  std::unordered_map<std::vector<uint32_t>, uint32_t, VectorHash> tally;
  for (const Pattern& p : bins) ++tally[p];
  for (auto& [pattern, count] : tally) {
    result->patterns.push_back(pattern);
    result->counts.push_back(count);
  }
}

}  // namespace

Result<std::vector<std::vector<uint32_t>>> FirstFitDecreasing(
    uint32_t capacity, const std::vector<uint32_t>& item_sizes) {
  for (uint32_t s : item_sizes) {
    if (s > capacity) {
      return Status::InvalidArgument("item of size " + std::to_string(s) +
                                     " exceeds capacity " + std::to_string(capacity));
    }
    if (s == 0) return Status::InvalidArgument("zero-size item");
  }
  return PackFirstFit(capacity, item_sizes);
}

Result<CuttingStockResult> SolveCuttingStock(uint32_t capacity,
                                             const std::vector<uint32_t>& demands,
                                             const CuttingStockOptions& options) {
  if (capacity == 0) return Status::InvalidArgument("capacity must be positive");
  for (size_t j = 0; j < demands.size(); ++j) {
    if (demands[j] > 0 && j + 1 > capacity) {
      return Status::InvalidArgument("demanded size " + std::to_string(j + 1) +
                                     " exceeds capacity " + std::to_string(capacity));
    }
  }

  CuttingStockResult result;
  std::vector<size_t> active;
  for (size_t j = 0; j < demands.size(); ++j) {
    if (demands[j] > 0) active.push_back(j);
  }
  if (active.empty()) {
    result.proven_optimal = true;
    return result;
  }

  // 1. LP lower bound via column generation.
  CROWDER_ASSIGN_OR_RETURN(LpRelaxation lp,
                           SolveLpByColumnGeneration(capacity, demands, active, options));
  result.lp_bound = lp.bound;
  const uint32_t round_up = static_cast<uint32_t>(std::ceil(lp.bound - options.eps));

  // 2. Incumbent via first-fit-decreasing.
  std::vector<Pattern> ffd = FirstFitPatterns(capacity, demands);
  const auto ffd_bins = static_cast<uint32_t>(ffd.size());
  if (ffd_bins <= round_up || !options.exact) {
    result.num_bins = ffd_bins;
    result.proven_optimal = ffd_bins <= round_up;
    AggregatePatterns(ffd, &result);
    return result;
  }

  // 3. Branch-and-bound, stopped at the LP bound. If its first descent
  // misses the bound, residual rounding gets one try; the search goes on
  // unless the rounding reached the bound, and the rounding is kept only
  // when strictly better than what the search found.
  MoveCache moves(capacity);
  std::vector<Pattern> rounded;
  int rounding_nodes = 0;
  const std::function<bool()> round_lp = [&] {
    if (lp.x.empty()) return false;
    rounded = RoundLpDown(capacity, demands, lp, round_up, options, &moves, &rounding_nodes);
    return rounded.size() <= round_up;
  };
  BinPackSearch search(capacity, round_up, options.max_bb_nodes, &moves);
  std::vector<Pattern> searched;
  const uint32_t search_best = search.Solve(demands, ffd_bins, round_lp, &searched);
  result.search_nodes = static_cast<uint64_t>(search.nodes()) + rounding_nodes;

  const std::vector<Pattern>* best = &ffd;
  if (!searched.empty() && search_best < ffd_bins) best = &searched;
  if (!rounded.empty() && rounded.size() < best->size()) best = &rounded;
  result.num_bins = static_cast<uint32_t>(best->size());
  // A search that ran to completion (or stopped at a bound) proved its best.
  result.proven_optimal = result.num_bins <= round_up || !search.exhausted();
  AggregatePatterns(*best, &result);
  return result;
}

}  // namespace lp
}  // namespace crowder

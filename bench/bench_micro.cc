// Micro-benchmarks (google-benchmark) for the performance-critical building
// blocks, plus the ABL-3 join-strategy ablation: naive all-pairs vs
// prefix-filtering AllPairs vs token blocking + verification.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>

#include "bench/bench_common.h"

namespace crowder {
namespace bench {
namespace {

// ---------------------------------------------------------------------------
// Similarity primitives.
// ---------------------------------------------------------------------------

void BM_Jaccard(benchmark::State& state) {
  Rng rng(1);
  similarity::TokenSet a;
  similarity::TokenSet b;
  for (int i = 0; i < state.range(0); ++i) {
    a.push_back(static_cast<text::TokenId>(rng.Uniform(100000)));
    b.push_back(static_cast<text::TokenId>(rng.Uniform(100000)));
  }
  a = similarity::MakeTokenSet(a);
  b = similarity::MakeTokenSet(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::Jaccard(a, b));
  }
}
BENCHMARK(BM_Jaccard)->Arg(8)->Arg(64)->Arg(512);

// Skewed-size set intersection: the machine pass's verify step compares a
// probe record against partners of very different sizes. Arg = |large| /
// |small| with |small| = 32; compare the three kernel shapes directly
// (OverlapSize auto-dispatches to galloping at the measured crossover ratio —
// see kGallopDispatchRatio in set_similarity.cc and bench_machine's sweep).
template <size_t (*Intersect)(similarity::TokenSpan, similarity::TokenSpan)>
void BM_OverlapSkewed(benchmark::State& state) {
  Rng rng(11);
  const size_t small_size = 32;
  const size_t large_size = small_size * static_cast<size_t>(state.range(0));
  similarity::TokenSet small_set;
  similarity::TokenSet large_set;
  for (size_t i = 0; i < small_size; ++i) {
    small_set.push_back(static_cast<text::TokenId>(rng.Uniform(8 * large_size)));
  }
  for (size_t i = 0; i < large_size; ++i) {
    large_set.push_back(static_cast<text::TokenId>(rng.Uniform(8 * large_size)));
  }
  small_set = similarity::MakeTokenSet(small_set);
  large_set = similarity::MakeTokenSet(large_set);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Intersect(small_set, large_set));
  }
}
BENCHMARK(BM_OverlapSkewed<similarity::OverlapSizeLinear>)->Arg(4)->Arg(32)->Arg(256);
BENCHMARK(BM_OverlapSkewed<similarity::OverlapSizeGalloping>)->Arg(4)->Arg(32)->Arg(256);
BENCHMARK(BM_OverlapSkewed<similarity::OverlapSizeSimd>)->Arg(4)->Arg(32)->Arg(256);

void BM_EditDistance(benchmark::State& state) {
  Rng rng(2);
  std::string a;
  std::string b;
  for (int i = 0; i < state.range(0); ++i) {
    a.push_back(static_cast<char>('a' + rng.Uniform(26)));
    b.push_back(static_cast<char>('a' + rng.Uniform(26)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::Levenshtein(a, b));
  }
}
BENCHMARK(BM_EditDistance)->Arg(16)->Arg(64)->Arg(256);

void BM_BoundedEditDistance(benchmark::State& state) {
  Rng rng(3);
  std::string a;
  std::string b;
  for (int i = 0; i < state.range(0); ++i) {
    a.push_back(static_cast<char>('a' + rng.Uniform(26)));
    b.push_back(static_cast<char>('a' + rng.Uniform(26)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::BoundedLevenshtein(a, b, 4));
  }
}
BENCHMARK(BM_BoundedEditDistance)->Arg(64)->Arg(256);

// ---------------------------------------------------------------------------
// ABL-3: join strategy on the Restaurant dataset.
// ---------------------------------------------------------------------------

const similarity::JoinInput& RestaurantJoinInput() {
  static const similarity::JoinInput kInput = core::internal::BuildJoinInput(Restaurant());
  return kInput;
}

// Every join bench reports pair_verifications/s: verified pairs (candidates
// that reached the intersection kernel) per second of bench time — the
// kernel-level throughput number that surfaces intersection regressions even
// when candidate generation dominates the wall time. kIsRate divides the
// accumulated count by the total elapsed seconds.
void ReportVerifications(benchmark::State& state, uint64_t verifications) {
  state.counters["pair_verifications/s"] =
      benchmark::Counter(static_cast<double>(verifications), benchmark::Counter::kIsRate);
}

void BM_JoinNaive(benchmark::State& state) {
  similarity::JoinOptions options;
  options.threshold = static_cast<double>(state.range(0)) / 10.0;
  similarity::JoinStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::NaiveJoin(RestaurantJoinInput(), options, &stats));
  }
  ReportVerifications(state, stats.pair_verifications);
}
BENCHMARK(BM_JoinNaive)->Arg(3)->Unit(benchmark::kMillisecond);

void BM_JoinAllPairs(benchmark::State& state) {
  similarity::JoinOptions options;
  options.threshold = static_cast<double>(state.range(0)) / 10.0;
  similarity::JoinStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::AllPairsJoin(RestaurantJoinInput(), options, &stats));
  }
  ReportVerifications(state, stats.pair_verifications);
}
BENCHMARK(BM_JoinAllPairs)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_JoinBlockingVerify(benchmark::State& state) {
  similarity::JoinOptions options;
  options.threshold = static_cast<double>(state.range(0)) / 10.0;
  similarity::BlockingOptions blocking;
  blocking.max_block_size = 0;
  for (auto _ : state) {
    auto candidates = similarity::TokenBlocking(RestaurantJoinInput(), blocking).ValueOrDie();
    benchmark::DoNotOptimize(
        similarity::VerifyCandidates(RestaurantJoinInput(), candidates, options));
  }
}
BENCHMARK(BM_JoinBlockingVerify)->Arg(3)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Parallel machine pass (src/exec + similarity/parallel_join). Arg = thread
// count (including the caller); compare against BM_JoinAllPairs/3 for the
// serial baseline. Speedups require actual cores — pin with CROWDER_THREADS
// or run on multi-core hardware; output is identical either way.
// ---------------------------------------------------------------------------

void BM_JoinAllPairsParallel(benchmark::State& state) {
  similarity::JoinOptions options;
  options.threshold = 0.3;
  similarity::ParallelJoinOptions exec_options;
  exec_options.num_threads = static_cast<uint32_t>(state.range(0));
  similarity::JoinStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        similarity::ParallelAllPairsJoin(RestaurantJoinInput(), options, exec_options, &stats));
  }
  ReportVerifications(state, stats.pair_verifications);
}
BENCHMARK(BM_JoinAllPairsParallel)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_JoinBlockedStreaming(benchmark::State& state) {
  similarity::JoinOptions options;
  options.threshold = 0.3;
  similarity::ParallelJoinOptions exec_options;
  exec_options.num_threads = static_cast<uint32_t>(state.range(0));
  exec_options.block_records = 256;
  similarity::JoinStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        similarity::BlockedAllPairsJoin(RestaurantJoinInput(), options, exec_options, &stats));
  }
  ReportVerifications(state, stats.pair_verifications);
}
BENCHMARK(BM_JoinBlockedStreaming)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// The scaled-up workload the exec subsystem exists for: a scale_factor-grown
// Product dataset (~54k records, >=50k per the acceptance bar) joined
// serially vs in parallel. This is the serial-vs-parallel pair recorded in
// BENCH_exec.json.
const similarity::JoinInput& ScaledProductJoinInput() {
  static const similarity::JoinInput kInput = [] {
    data::ProductConfig config;
    config.scale_factor = 25.0;  // 27,025 + 27,300 = 54,325 records
    const auto dataset = data::GenerateProduct(config).ValueOrDie();
    return core::internal::BuildJoinInput(dataset);
  }();
  return kInput;
}

void BM_JoinScaledProductSerial(benchmark::State& state) {
  similarity::JoinOptions options;
  options.threshold = 0.5;
  similarity::JoinStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        similarity::AllPairsJoin(ScaledProductJoinInput(), options, &stats));
  }
  state.counters["records"] = static_cast<double>(ScaledProductJoinInput().sets.size());
  ReportVerifications(state, stats.pair_verifications);
}
BENCHMARK(BM_JoinScaledProductSerial)->Unit(benchmark::kMillisecond);

void BM_JoinScaledProductParallel(benchmark::State& state) {
  similarity::JoinOptions options;
  options.threshold = 0.5;
  similarity::ParallelJoinOptions exec_options;
  exec_options.num_threads = static_cast<uint32_t>(state.range(0));
  similarity::JoinStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        similarity::ParallelAllPairsJoin(ScaledProductJoinInput(), options, exec_options,
                                         &stats));
  }
  state.counters["records"] = static_cast<double>(ScaledProductJoinInput().sets.size());
  ReportVerifications(state, stats.pair_verifications);
}
BENCHMARK(BM_JoinScaledProductParallel)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// HIT generation throughput.
// ---------------------------------------------------------------------------

void BM_TwoTiered(benchmark::State& state) {
  const auto& dataset = Restaurant();
  const double threshold = static_cast<double>(state.range(0)) / 10.0;
  const auto pairs = MachinePairs(dataset, threshold);
  graph::PairGraph graph = BuildGraph(dataset, pairs);
  hitgen::TwoTieredGenerator generator;
  for (auto _ : state) {
    graph.Reset();
    benchmark::DoNotOptimize(generator.Generate(&graph, 10));
  }
  state.counters["pairs"] = static_cast<double>(pairs.size());
}
BENCHMARK(BM_TwoTiered)->Arg(3)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_BfsGenerator(benchmark::State& state) {
  const auto& dataset = Restaurant();
  const auto pairs = MachinePairs(dataset, 0.3);
  graph::PairGraph graph = BuildGraph(dataset, pairs);
  hitgen::BfsGenerator generator;
  for (auto _ : state) {
    graph.Reset();
    benchmark::DoNotOptimize(generator.Generate(&graph, 10));
  }
}
BENCHMARK(BM_BfsGenerator)->Unit(benchmark::kMillisecond);

// Two-tiered generation on Product grown by scale_factor (Arg 0; ×6 is the
// repository benchmark's hybrid_cluster input, ×50 is 108,650 records) at
// cluster size k (Arg 1). The machine pass at threshold 0.3 runs once per
// scale, untimed; each iteration times Generate on a reset graph. After the
// loop, the decomposition runs three more times outside the timer and
// reports the best time of each tier: partition_s (DecomposeTopTier) and
// pack_s (SolveCuttingStock on the demand vector).
const std::vector<similarity::ScoredPair>& ScaledProductPairs(int scale, uint32_t* records) {
  static std::map<int, std::pair<uint32_t, std::vector<similarity::ScoredPair>>> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    data::ProductConfig config;
    config.scale_factor = scale;
    const auto dataset = data::GenerateProduct(config).ValueOrDie();
    it = cache
             .emplace(scale, std::make_pair(static_cast<uint32_t>(dataset.table.num_records()),
                                            MachinePairs(dataset, 0.3)))
             .first;
  }
  *records = it->second.first;
  return it->second.second;
}

void BM_TwoTieredScaledProduct(benchmark::State& state) {
  uint32_t records = 0;
  const auto& pairs = ScaledProductPairs(static_cast<int>(state.range(0)), &records);
  const auto k = static_cast<uint32_t>(state.range(1));
  std::vector<graph::Edge> edges;
  edges.reserve(pairs.size());
  for (const auto& p : pairs) edges.push_back({p.a, p.b});
  graph::PairGraph graph = graph::PairGraph::Create(records, edges).ValueOrDie();
  hitgen::TwoTieredGenerator generator;
  size_t hits = 0;
  for (auto _ : state) {
    graph.Reset();
    auto generated = generator.Generate(&graph, k).ValueOrDie();
    hits = generated.size();
    benchmark::DoNotOptimize(generated);
  }

  using Clock = std::chrono::steady_clock;
  double partition_s = 0.0;
  double pack_s = 0.0;
  uint64_t search_nodes = 0;
  for (int rep = 0; rep < 3; ++rep) {  // best of three
    graph.Reset();
    const auto start = Clock::now();
    const hitgen::TopTier tier = hitgen::DecomposeTopTier(&graph, k);
    std::vector<uint32_t> demands(k, 0);
    for (const auto& scc : tier.small) ++demands[scc.size() - 1];
    for (const auto& part : tier.parts) ++demands[part.size() - 1];
    const auto partitioned = Clock::now();
    search_nodes = lp::SolveCuttingStock(k, demands).ValueOrDie().search_nodes;
    const std::chrono::duration<double> partition = partitioned - start;
    const std::chrono::duration<double> pack = Clock::now() - partitioned;
    partition_s = rep == 0 ? partition.count() : std::min(partition_s, partition.count());
    pack_s = rep == 0 ? pack.count() : std::min(pack_s, pack.count());
  }

  state.counters["records"] = records;
  state.counters["pairs"] = static_cast<double>(pairs.size());
  state.counters["hits"] = static_cast<double>(hits);
  state.counters["partition_s"] = partition_s;
  state.counters["pack_s"] = pack_s;
  state.counters["search_nodes"] = static_cast<double>(search_nodes);
}
BENCHMARK(BM_TwoTieredScaledProduct)
    ->Args({6, 10})
    ->Args({25, 10})
    ->Args({25, 20})
    ->Args({25, 50})
    ->Args({50, 10})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Aggregation.
// ---------------------------------------------------------------------------

void BM_DawidSkene(benchmark::State& state) {
  Rng rng(4);
  aggregate::VoteTable votes(static_cast<size_t>(state.range(0)));
  for (auto& pair_votes : votes) {
    const bool truth = rng.Bernoulli(0.3);
    for (uint32_t w = 0; w < 3; ++w) {
      const uint32_t wid = static_cast<uint32_t>(rng.Uniform(100));
      pair_votes.push_back({wid, rng.Bernoulli(0.1) ? !truth : truth});
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(aggregate::RunDawidSkene(votes));
  }
}
BENCHMARK(BM_DawidSkene)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Cutting stock.
// ---------------------------------------------------------------------------

void BM_CuttingStock(benchmark::State& state) {
  Rng rng(5);
  std::vector<uint32_t> demands(10);
  for (auto& d : demands) d = static_cast<uint32_t>(rng.Uniform(200));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::SolveCuttingStock(10, demands));
  }
}
BENCHMARK(BM_CuttingStock)->Unit(benchmark::kMicrosecond);

// Demand vectors recorded from real runs at k = 10 (Arg 0 picks one):
// 0 = the repository benchmark's hybrid_cluster at seed 0, where the first
// descent reaches ⌈LP⌉ = 1,234; 1 = the library's Product dataset at
// threshold 0.3, where it misses and residual rounding reaches ⌈LP⌉ = 174.
void BM_CuttingStockRecorded(benchmark::State& state) {
  static const std::vector<uint32_t> kDemands[] = {
      {0, 2847, 195, 228, 71, 61, 22, 31, 20, 382},
      {0, 731, 25, 24, 9, 3, 0, 2, 1, 1},
  };
  const auto& demands = kDemands[state.range(0)];
  lp::CuttingStockResult packed;
  for (auto _ : state) {
    packed = lp::SolveCuttingStock(10, demands).ValueOrDie();
    benchmark::DoNotOptimize(packed);
  }
  state.counters["bins"] = packed.num_bins;
  state.counters["search_nodes"] = static_cast<double>(packed.search_nodes);
}
BENCHMARK(BM_CuttingStockRecorded)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace crowder

BENCHMARK_MAIN();

// Micro-benchmarks (google-benchmark) for the performance-critical building
// blocks, plus the ABL-3 join-strategy ablation: naive all-pairs vs
// prefix-filtering AllPairs vs token blocking + verification.
#include <benchmark/benchmark.h>

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
  static const similarity::JoinInput kInput = core::internal::BuildJoinInput(
      Restaurant(), core::CandidateStrategy::kAllPairsJoin, nullptr);
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
    return core::internal::BuildJoinInput(dataset, core::CandidateStrategy::kAllPairsJoin,
                                          nullptr);
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

}  // namespace
}  // namespace bench
}  // namespace crowder

BENCHMARK_MAIN();

// Machine-loop raw-speed harness: the numbers behind BENCH_machine.json.
//
// Four sections, all on deterministic inputs:
//
//  1. Kernel divergence check — every intersection kernel (galloping, SIMD
//     dispatch, OverlapSizeAtLeast at required ∈ {0, exact, exact+1}) against
//     OverlapSizeLinear over adversarial lengths 0–70 (crossing the SSE/AVX2
//     vector-width boundaries), random densities, and dataset-derived token
//     sets. Any disagreement makes the harness EXIT NONZERO — this is the
//     smoke-level guard that the SIMD pass can never change results.
//  2. Kernel throughput — intersections/s per kernel at representative
//     (size, ratio) shapes, plus the galloping-vs-SIMD ratio sweep that
//     kGallopDispatchRatio (similarity/set_similarity.cc) is tuned from.
//  3. Join wall/CPU — AllPairsJoin over the scaled Product input (the
//     BENCH_exec.json workload at CROWDER_MACHINE_SCALE=25), with the
//     join counters (postings scanned, candidates pruned, verifications).
//     With CROWDER_MACHINE_CURVE set, the same serial join also runs at each
//     listed scale: the scale curve of BENCH_machine.json.
//  4. Cluster-route per-stage wall — the streaming cluster workflow's
//     pair→HIT context assembly (cluster_index_wall_ms +
//     cluster_context_wall_ms), the before/after axis of the inverted
//     spill-join rework.
//
// Environment knobs (smoke defaults are small and fast):
//   CROWDER_MACHINE_SCALE   Product scale_factor for sections 3–4
//                           (default 2 ≈ 4.3k records; 25 ≈ 54k records,
//                           the recorded run)
//   CROWDER_MACHINE_BUDGET  memory budget bytes for section 4 (default 4096)
//   CROWDER_MACHINE_THRESHOLD  similarity/likelihood threshold for
//                           sections 3–4 (default 0.5; lower = denser pair
//                           graph, bigger components, heavier cluster
//                           contexts)
//   CROWDER_MACHINE_REPS    repetitions of each throughput measurement
//                           (default 3; the minimum is reported)
//   CROWDER_MACHINE_CURVE   comma-separated Product scale factors for the
//                           join scale curve (default empty = skipped; the
//                           recorded curve is "25,50,100,200")
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace crowder {
namespace bench {
namespace {

// Process CPU time (user + system) so far, in seconds.
double CpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  const auto to_s = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return to_s(usage.ru_utime) + to_s(usage.ru_stime);
}

similarity::TokenSet RandomSet(Rng* rng, size_t size, uint64_t universe) {
  similarity::TokenSet set;
  set.reserve(size);
  for (size_t i = 0; i < size; ++i) {
    set.push_back(static_cast<text::TokenId>(rng->Uniform(universe)));
  }
  return similarity::MakeTokenSet(set);
}

// ---------------------------------------------------------------------------
// Section 1: divergence check.
// ---------------------------------------------------------------------------

// Checks every kernel against the linear reference on one pair of sets.
// Returns false (and prints the counterexample) on any disagreement.
bool CheckPair(const similarity::TokenSet& a, const similarity::TokenSet& b) {
  const size_t exact = similarity::OverlapSizeLinear(a, b);
  bool ok = true;
  const auto complain = [&](const char* kernel, size_t got, size_t want) {
    std::cout << "DIVERGENCE: " << kernel << " returned " << got << ", linear says " << want
              << " (|a|=" << a.size() << ", |b|=" << b.size() << ")\n";
    ok = false;
  };
  const size_t galloping = similarity::OverlapSizeGalloping(a, b);
  if (galloping != exact) complain("galloping", galloping, exact);
  const size_t simd = similarity::OverlapSizeSimd(a, b);
  if (simd != exact) complain("simd", simd, exact);
  const size_t dispatched = similarity::OverlapSize(a, b);
  if (dispatched != exact) complain("dispatch", dispatched, exact);
  // The AtLeast contract: exact whenever exact >= required, else < required.
  const size_t at0 = similarity::OverlapSizeAtLeast(a, b, 0);
  if (at0 != exact) complain("at_least(0)", at0, exact);
  const size_t at_exact = similarity::OverlapSizeAtLeast(a, b, exact);
  if (at_exact != exact) complain("at_least(exact)", at_exact, exact);
  const size_t at_over = similarity::OverlapSizeAtLeast(a, b, exact + 1);
  if (at_over >= exact + 1) complain("at_least(exact+1)", at_over, exact);
  return ok;
}

bool RunDivergenceCheck() {
  std::cout << "active kernel: " << similarity::OverlapSimdKernelName() << "\n";
  Rng rng(20260808);
  size_t checked = 0;
  bool ok = true;

  // Adversarial lengths 0–70 on both sides: every tail length around the
  // 4-lane (SSE) and 8-lane (AVX2) block boundaries, at three densities.
  for (size_t la = 0; la <= 70; ++la) {
    for (size_t lb : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{7}, size_t{8},
                      size_t{9}, size_t{15}, size_t{16}, size_t{17}, size_t{31}, size_t{32},
                      size_t{33}, size_t{63}, size_t{64}, size_t{70}}) {
      for (uint64_t universe : {uint64_t{8}, uint64_t{64}, uint64_t{4096}}) {
        const auto a = RandomSet(&rng, la, std::max<uint64_t>(universe, 1));
        const auto b = RandomSet(&rng, lb, std::max<uint64_t>(universe, 1));
        ok = CheckPair(a, b) && ok;
        ++checked;
      }
    }
  }

  // Skewed ratios across the galloping dispatch boundary.
  for (size_t ratio : {size_t{8}, size_t{16}, size_t{31}, size_t{32}, size_t{33}, size_t{64},
                       size_t{256}}) {
    const auto a = RandomSet(&rng, 32, 16 * 32 * ratio);
    const auto b = RandomSet(&rng, 32 * ratio, 16 * 32 * ratio);
    ok = CheckPair(a, b) && ok;
    ++checked;
  }

  // Dataset-derived sets from both source-gated datasets: real token-id
  // distributions, including identical and disjoint records.
  for (const data::Dataset* dataset : {&Restaurant(), &Product()}) {
    text::Vocabulary vocab;
    std::vector<similarity::TokenSet> sets;
    const uint32_t n = std::min<uint32_t>(
        static_cast<uint32_t>(dataset->table.num_records()), 400);
    for (uint32_t r = 0; r < n; ++r) {
      sets.push_back(similarity::MakeTokenSet(
          vocab.InternDocument(dataset->table.ConcatenatedRecord(r))));
    }
    for (size_t trial = 0; trial < 600; ++trial) {
      const auto& a = sets[rng.Uniform(sets.size())];
      const auto& b = sets[rng.Uniform(sets.size())];
      ok = CheckPair(a, b) && ok;
      ++checked;
    }
  }

  std::cout << "divergence check: " << checked << " set pairs, "
            << (ok ? "all kernels agree" : "FAILED") << "\n";
  return ok;
}

// ---------------------------------------------------------------------------
// Section 2: kernel throughput + the galloping crossover sweep.
// ---------------------------------------------------------------------------

using KernelFn = size_t (*)(similarity::TokenSpan, similarity::TokenSpan);

// ns/op over enough iterations to fill ~10ms, minimum over `reps` runs.
double MeasureNs(KernelFn fn, const similarity::TokenSet& a, const similarity::TokenSet& b,
                 int reps) {
  volatile size_t sink = 0;
  // Calibrate the iteration count on one quick run.
  size_t iters = 1024;
  {
    WallTimer timer;
    for (size_t i = 0; i < iters; ++i) sink += fn(a, b);
    const double s = std::max(timer.ElapsedSeconds(), 1e-9);
    iters = std::max<size_t>(64, static_cast<size_t>(0.01 * static_cast<double>(iters) / s));
  }
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    for (size_t i = 0; i < iters; ++i) sink += fn(a, b);
    best = std::min(best, timer.ElapsedSeconds() * 1e9 / static_cast<double>(iters));
  }
  (void)sink;
  return best;
}

struct ThroughputRow {
  size_t small = 0;
  size_t ratio = 0;
  double linear_ns = 0.0;
  double galloping_ns = 0.0;
  double simd_ns = 0.0;
};

std::vector<ThroughputRow> RunThroughput(int reps) {
  std::cout << "\nkernel throughput (ns/intersection, best of " << reps << "):\n";
  std::cout << "  small  ratio     linear  galloping       simd\n";
  Rng rng(7);
  std::vector<ThroughputRow> rows;
  for (const auto& [small, ratio] :
       std::vector<std::pair<size_t, size_t>>{{8, 1}, {32, 1}, {64, 1}, {32, 4}, {32, 32}}) {
    const size_t large = small * ratio;
    const auto a = RandomSet(&rng, small, 8 * large);
    const auto b = RandomSet(&rng, large, 8 * large);
    ThroughputRow row;
    row.small = small;
    row.ratio = ratio;
    row.linear_ns = MeasureNs(&similarity::OverlapSizeLinear, a, b, reps);
    row.galloping_ns = MeasureNs(&similarity::OverlapSizeGalloping, a, b, reps);
    row.simd_ns = MeasureNs(&similarity::OverlapSizeSimd, a, b, reps);
    std::cout << "  " << FormatDouble(static_cast<double>(small), 0) << "     "
              << FormatDouble(static_cast<double>(ratio), 0) << "x   "
              << FormatDouble(row.linear_ns, 1) << "     " << FormatDouble(row.galloping_ns, 1)
              << "     " << FormatDouble(row.simd_ns, 1) << "\n";
    rows.push_back(row);
  }
  return rows;
}

struct SweepRow {
  size_t ratio = 0;
  double simd_ns = 0.0;
  double galloping_ns = 0.0;
};

// The dispatch-tuning sweep: |small| = 32 against growing |large|. The
// crossover — the first ratio where galloping beats the SIMD merge — is what
// kGallopDispatchRatio encodes.
std::vector<SweepRow> RunCrossoverSweep(int reps, size_t* crossover) {
  std::cout << "\ngalloping crossover sweep (|small| = 32):\n";
  std::cout << "  ratio    simd_ns  galloping_ns  winner\n";
  Rng rng(13);
  std::vector<SweepRow> rows;
  *crossover = 0;
  for (size_t ratio : {size_t{1}, size_t{2}, size_t{4}, size_t{8}, size_t{16}, size_t{24},
                       size_t{32}, size_t{48}, size_t{64}, size_t{128}, size_t{256}}) {
    const size_t small = 32;
    const size_t large = small * ratio;
    const auto a = RandomSet(&rng, small, 8 * large);
    const auto b = RandomSet(&rng, large, 8 * large);
    SweepRow row;
    row.ratio = ratio;
    row.simd_ns = MeasureNs(&similarity::OverlapSizeSimd, a, b, reps);
    row.galloping_ns = MeasureNs(&similarity::OverlapSizeGalloping, a, b, reps);
    const bool gallop_wins = row.galloping_ns < row.simd_ns;
    if (gallop_wins && *crossover == 0) *crossover = ratio;
    std::cout << "  " << FormatDouble(static_cast<double>(ratio), 0) << "x    "
              << FormatDouble(row.simd_ns, 1) << "      " << FormatDouble(row.galloping_ns, 1)
              << "      " << (gallop_wins ? "galloping" : "simd") << "\n";
    rows.push_back(row);
  }
  std::cout << "measured crossover: "
            << (*crossover == 0 ? "none (simd wins everywhere swept)"
                                : FormatDouble(static_cast<double>(*crossover), 0) + "x")
            << "\n";
  return rows;
}

// ---------------------------------------------------------------------------
// Sections 3 & 4: the join and the streaming cluster route.
// ---------------------------------------------------------------------------

similarity::JoinInput ScaledProductInput(double scale) {
  data::ProductConfig config;
  config.scale_factor = scale;
  const auto dataset = data::GenerateProduct(config).ValueOrDie();
  return core::internal::BuildJoinInput(dataset);
}

// One serial AllPairs join over scaled Product: its counters and wall time.
struct JoinRun {
  double scale = 0;
  size_t records = 0;
  size_t pairs = 0;
  similarity::JoinStats stats;
  double wall_ms = 0;
  double cpu_ms = 0;
};

JoinRun RunJoin(double scale, double threshold) {
  JoinRun run;
  run.scale = scale;
  const similarity::JoinInput input = ScaledProductInput(scale);
  similarity::JoinOptions options;
  options.threshold = threshold;
  WallTimer timer;
  const double cpu0 = CpuSeconds();
  run.pairs = similarity::AllPairsJoin(input, options, &run.stats).ValueOrDie().size();
  run.wall_ms = timer.ElapsedMillis();
  run.cpu_ms = (CpuSeconds() - cpu0) * 1e3;
  run.records = input.sets.size();
  return run;
}

double VerificationsPerPair(const JoinRun& run) {
  return run.pairs == 0 ? 0.0
                        : static_cast<double>(run.stats.pair_verifications) /
                              static_cast<double>(run.pairs);
}

void PrintJoinRun(const JoinRun& run) {
  std::cout << WithThousands(run.records) << " records -> " << WithThousands(run.pairs)
            << " pairs, " << WithThousands(run.stats.postings_scanned) << " postings scanned, "
            << WithThousands(run.stats.candidates_pruned) << " pruned, "
            << WithThousands(run.stats.pair_verifications) << " verifications ("
            << FormatDouble(VerificationsPerPair(run), 0) << " per pair), wall "
            << FormatDouble(run.wall_ms, 0) << " ms, cpu " << FormatDouble(run.cpu_ms, 0)
            << " ms\n";
}

// Parses "25,50,100" into scale factors; empty or unset means no curve, and
// a malformed or negative scale exits 2 naming the variable.
std::vector<double> ParseScales(const char* text) {
  std::vector<double> scales;
  std::istringstream in(text == nullptr ? "" : text);
  for (std::string item; std::getline(in, item, ',');) {
    if (item.empty()) continue;
    const Result<double> scale = ParseNumber<double>(item, "CROWDER_MACHINE_CURVE", 0.0);
    if (!scale.ok()) {
      std::cerr << scale.status().ToString() << "\n";
      std::exit(2);
    }
    scales.push_back(*scale);
  }
  return scales;
}

int Main() {
  const double scale = EnvNumber("CROWDER_MACHINE_SCALE", 2.0);
  const uint64_t budget = EnvNumber<uint64_t>("CROWDER_MACHINE_BUDGET", 4096);
  const double threshold = EnvNumber("CROWDER_MACHINE_THRESHOLD", 0.5);
  const int reps = EnvNumber<int>("CROWDER_MACHINE_REPS", 3, 1, 1000);
  const std::vector<double> curve_scales = ParseScales(std::getenv("CROWDER_MACHINE_CURVE"));

  Banner("Machine-loop raw speed (scale " + FormatDouble(scale, 1) + ", budget " +
         WithThousands(budget) + " B, reps " + std::to_string(reps) + ")");

  const bool agree = RunDivergenceCheck();
  const std::vector<ThroughputRow> throughput = RunThroughput(reps);
  size_t crossover = 0;
  const std::vector<SweepRow> sweep = RunCrossoverSweep(reps, &crossover);

  // Section 3: the serial AllPairs join, wall and CPU, then the scale curve.
  const JoinRun join = RunJoin(scale, threshold);
  std::cout << "\nserial AllPairs join: ";
  PrintJoinRun(join);
  std::vector<JoinRun> curve;
  for (double curve_scale : curve_scales) {
    std::cout << "scale " << FormatDouble(curve_scale, 0) << ": ";
    curve.push_back(RunJoin(curve_scale, threshold));
    PrintJoinRun(curve.back());
  }

  // Section 4: the streaming cluster route's context-assembly stage walls.
  data::ProductConfig product_config;
  product_config.scale_factor = scale;
  const data::Dataset dataset = data::GenerateProduct(product_config).ValueOrDie();
  core::WorkflowConfig config;
  config.likelihood_threshold = threshold;
  config.hit_type = core::HitType::kClusterBased;
  config.aggregation = core::AggregationMethod::kDawidSkene;
  config.seed = 42;
  config.execution_mode = core::ExecutionMode::kStreaming;
  config.memory_budget_bytes = budget;
  config.crowd_partition_pairs = 128;
  WallTimer cluster_timer;
  const auto result = core::HybridWorkflow(config).Run(dataset).ValueOrDie();
  const double cluster_wall_ms = cluster_timer.ElapsedMillis();
  const auto& stats = result.pipeline_stats;
  std::cout << "streaming cluster route: " << WithThousands(result.num_candidate_pairs)
            << " pairs, " << stats.crowd_partitions << " rounds, workflow wall "
            << FormatDouble(cluster_wall_ms, 0) << " ms\n"
            << "  pair->HIT index build: " << FormatDouble(stats.cluster_index_wall_ms, 1)
            << " ms\n"
            << "  round context assembly: " << FormatDouble(stats.cluster_context_wall_ms, 1)
            << " ms\n";

  std::cout << "\nJSON for BENCH_machine.json:\n"
            << "{\n"
            << "  \"kernel\": \"" << similarity::OverlapSimdKernelName() << "\",\n"
            << "  \"kernels_agree\": " << (agree ? "true" : "false") << ",\n"
            << "  \"throughput_ns\": [\n";
  for (size_t i = 0; i < throughput.size(); ++i) {
    const auto& row = throughput[i];
    std::cout << "    {\"small\": " << row.small << ", \"ratio\": " << row.ratio
              << ", \"linear\": " << FormatDouble(row.linear_ns, 1)
              << ", \"galloping\": " << FormatDouble(row.galloping_ns, 1)
              << ", \"simd\": " << FormatDouble(row.simd_ns, 1) << "}"
              << (i + 1 < throughput.size() ? "," : "") << "\n";
  }
  std::cout << "  ],\n"
            << "  \"galloping_crossover\": {\n"
            << "    \"measured_ratio\": " << crossover << ",\n"
            << "    \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const auto& row = sweep[i];
    std::cout << "      {\"ratio\": " << row.ratio << ", \"simd\": "
              << FormatDouble(row.simd_ns, 1) << ", \"galloping\": "
              << FormatDouble(row.galloping_ns, 1) << "}" << (i + 1 < sweep.size() ? "," : "")
              << "\n";
  }
  std::cout << "    ]\n"
            << "  },\n"
            << "  \"scale_factor\": " << FormatDouble(scale, 1) << ",\n"
            << "  \"threshold\": " << FormatDouble(threshold, 2) << ",\n"
            << "  \"join_records\": " << join.records << ",\n"
            << "  \"join_pairs\": " << join.pairs << ",\n"
            << "  \"join_postings_scanned\": " << join.stats.postings_scanned << ",\n"
            << "  \"join_candidates_pruned\": " << join.stats.candidates_pruned << ",\n"
            << "  \"join_verifications\": " << join.stats.pair_verifications << ",\n"
            << "  \"join_wall_ms\": " << FormatDouble(join.wall_ms, 0) << ",\n"
            << "  \"join_cpu_ms\": " << FormatDouble(join.cpu_ms, 0) << ",\n"
            << "  \"cluster_workflow_wall_ms\": " << FormatDouble(cluster_wall_ms, 0) << ",\n"
            << "  \"cluster_index_wall_ms\": " << FormatDouble(stats.cluster_index_wall_ms, 1)
            << ",\n"
            << "  \"cluster_context_wall_ms\": "
            << FormatDouble(stats.cluster_context_wall_ms, 1) << (curve.empty() ? "" : ",")
            << "\n";
  if (!curve.empty()) {
    std::cout << "  \"join_scale_curve\": [\n";
    for (size_t i = 0; i < curve.size(); ++i) {
      const JoinRun& run = curve[i];
      std::cout << "    {\"scale_factor\": " << FormatDouble(run.scale, 0)
                << ", \"records\": " << run.records << ", \"pairs\": " << run.pairs
                << ", \"postings_scanned\": " << run.stats.postings_scanned
                << ", \"candidates_pruned\": " << run.stats.candidates_pruned
                << ", \"pair_verifications\": " << run.stats.pair_verifications
                << ", \"verifications_per_pair\": " << FormatDouble(VerificationsPerPair(run), 0)
                << ", \"serial_join_wall_ms\": " << FormatDouble(run.wall_ms, 0) << "}"
                << (i + 1 < curve.size() ? "," : "") << "\n";
    }
    std::cout << "  ]\n";
  }
  std::cout << "}\n";
  return agree ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace crowder

int main() { return crowder::bench::Main(); }

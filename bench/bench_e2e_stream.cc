// Budget sweep of the full workflow (machine pass → HIT generation → crowd
// → aggregation → clustering) on a scaled Product dataset. The workflow runs
// in ExecutionMode::kStreaming under a fixed ladder of memory budgets,
// smallest first because peak RSS only grows within a process, and last
// without a budget. Each budget reports its wall time, the process's peak
// RSS so far and the bytes each bounded structure spilled. Emits a JSON
// block for BENCH_e2e_stream.json.
//
// Exits nonzero unless
//   - every budget's ranked list, crowd statistics and clusters equal the
//     unbounded run's,
//   - the smallest budget spilled, and
//   - the machine pass streamed under the smallest budget spills and its
//     sorted scan equals HybridWorkflow::MachinePass.
//
//   CROWDER_E2E_SCALE      Product scale_factor (default 2 ≈ 4.3k records;
//                          25 ≈ 54k records)
//   CROWDER_E2E_PARTITION  crowd partition capacity in pairs under every
//                          budget (default 128, which splits the default
//                          scale's ~471 pairs into ~4 partitions; 0 derives
//                          it from each budget)
//   CROWDER_E2E_THREADS    num_threads (default 1)
//   CROWDER_E2E_HIT_TYPE   "pair" (default) or "cluster" (two-tiered over
//                          component buckets)
//   CROWDER_E2E_THRESHOLD  likelihood threshold (default 0.5)
#include <sys/resource.h>

#include "bench/bench_common.h"

namespace crowder {
namespace bench {
namespace {

// Bytes each bounded structure may hold before it spills, smallest first.
// 0, the unbounded run, comes last: it is the reference every budget must
// reproduce. 4 KiB spills at every scale.
constexpr uint64_t kBudgets[] = {4096, 64 << 10, 1 << 20, 16 << 20, 0};

// Peak resident set size of this process so far, in bytes (Linux reports
// ru_maxrss in KiB).
uint64_t PeakRssBytes() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

std::string BudgetLabel(uint64_t budget) {
  return budget == 0 ? "unbounded" : WithThousands(budget) + " B";
}

bool SamePairs(const std::vector<similarity::ScoredPair>& x,
               const std::vector<similarity::ScoredPair>& y) {
  if (x.size() != y.size()) return false;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].a != y[i].a || x[i].b != y[i].b || x[i].score != y[i].score) return false;
  }
  return true;
}

// What a run outputs: none of it may depend on the budget.
struct RunOutput {
  core::WorkflowResult result;
  core::EntityClusters clusters;

  bool operator==(const RunOutput& o) const {
    const crowd::CrowdRunResult& c = result.crowd_stats;
    const crowd::CrowdRunResult& oc = o.result.crowd_stats;
    if (result.num_candidate_pairs != o.result.num_candidate_pairs ||
        c.num_hits != oc.num_hits || c.num_assignments != oc.num_assignments ||
        c.num_distinct_workers != oc.num_distinct_workers ||
        c.cost_dollars != oc.cost_dollars || c.total_seconds != oc.total_seconds ||
        c.median_assignment_seconds != oc.median_assignment_seconds ||
        clusters.cluster_of != o.clusters.cluster_of ||
        result.ranked.size() != o.result.ranked.size()) {
      return false;
    }
    for (size_t i = 0; i < result.ranked.size(); ++i) {
      const eval::RankedPair& p = result.ranked[i];
      const eval::RankedPair& q = o.result.ranked[i];
      if (p.a != q.a || p.b != q.b || p.score != q.score) return false;
    }
    return true;
  }
};

// The workflow, then bounded-memory clustering as `crowder_cli run
// --streaming` does it.
RunOutput Run(const core::WorkflowConfig& config, const data::Dataset& dataset) {
  RunOutput out;
  out.result = core::HybridWorkflow(config).Run(dataset).ValueOrDie();
  const double match_threshold = core::ResolutionOptions{}.match_threshold;
  core::StreamingResolver resolver(static_cast<uint32_t>(dataset.table.num_records()));
  for (const auto& rp : out.result.ranked) {
    if (rp.score >= match_threshold) CROWDER_CHECK(resolver.AddMatch(rp.a, rp.b).ok());
  }
  out.clusters = resolver.Finish().ValueOrDie();
  return out;
}

struct Reading {
  uint64_t budget = 0;
  double seconds = 0.0;
  uint64_t peak_rss_bytes = 0;
  uint64_t stream_spilled_bytes = 0;
  uint64_t vote_spilled_bytes = 0;
  uint64_t boundary_spilled_bytes = 0;
  uint64_t crowd_partitions = 0;

  uint64_t spilled_bytes() const {
    return stream_spilled_bytes + vote_spilled_bytes + boundary_spilled_bytes;
  }
};

int Main() {
  const double scale = EnvNumber("CROWDER_E2E_SCALE", 2.0);
  const uint64_t partition_pairs = EnvNumber<uint64_t>("CROWDER_E2E_PARTITION", 128);
  const uint32_t threads = EnvNumber<uint32_t>("CROWDER_E2E_THREADS", 1, 0, exec::kMaxThreads);
  const std::string hit_type = EnvString("CROWDER_E2E_HIT_TYPE", "pair");
  const double threshold = EnvNumber("CROWDER_E2E_THRESHOLD", 0.5);

  Banner("End-to-end workflow over a ladder of memory budgets (Product, scale " +
         FormatDouble(scale, 1) + ", threshold " + FormatDouble(threshold, 1) +
         ", partition " + WithThousands(partition_pairs) + " pairs, " + hit_type +
         "-based HITs, threads " + std::to_string(threads) + ")");

  data::ProductConfig product;
  product.scale_factor = scale;
  WallTimer timer;
  const data::Dataset dataset = data::GenerateProduct(product).ValueOrDie();
  const double generate_s = timer.ElapsedSeconds();
  std::cout << "generate: " << FormatDouble(generate_s, 1) << " s ("
            << WithThousands(dataset.table.num_records()) << " records)\n";

  core::WorkflowConfig config;
  config.likelihood_threshold = threshold;
  config.num_threads = threads;
  config.hit_type =
      hit_type == "cluster" ? core::HitType::kClusterBased : core::HitType::kPairBased;
  config.aggregation = core::AggregationMethod::kDawidSkene;
  config.seed = 42;
  config.execution_mode = core::ExecutionMode::kStreaming;

  // Only the smallest budget's output is kept: every later run, the
  // unbounded one included, must equal it, so all equal the unbounded run.
  RunOutput smallest;
  std::vector<Reading> readings;
  bool identical = true;
  for (const uint64_t budget : kBudgets) {
    config.memory_budget_bytes = budget;
    config.crowd_partition_pairs = budget == 0 ? 0 : partition_pairs;
    timer.Reset();
    RunOutput run = Run(config, dataset);
    Reading r;
    r.budget = budget;
    r.seconds = timer.ElapsedSeconds();
    r.peak_rss_bytes = PeakRssBytes();
    r.stream_spilled_bytes = run.result.pipeline_stats.spilled_bytes;
    r.vote_spilled_bytes = run.result.pipeline_stats.vote_spilled_bytes;
    r.boundary_spilled_bytes = run.result.pipeline_stats.boundary_spilled_bytes;
    r.crowd_partitions = run.result.pipeline_stats.crowd_partitions;
    const bool same = readings.empty() || run == smallest;
    identical = identical && same;
    std::cout << BudgetLabel(budget) << ": " << FormatDouble(r.seconds, 3) << " s, peak RSS "
              << WithThousands(r.peak_rss_bytes) << " B, spilled "
              << WithThousands(r.stream_spilled_bytes) << " / "
              << WithThousands(r.vote_spilled_bytes) << " / "
              << WithThousands(r.boundary_spilled_bytes)
              << " B (stream / votes / boundary), " << r.crowd_partitions
              << " crowd partitions" << (same ? "" : " — OUTPUT DIFFERS") << "\n";
    if (readings.empty()) smallest = std::move(run);
    readings.push_back(r);
  }
  const bool smallest_spilled = readings.front().spilled_bytes() > 0;

  // The machine pass alone under the smallest budget: the spilled stream
  // must scan back exactly as MachinePass returns P.
  core::PairStream stream(kBudgets[0]);
  const auto stream_stats =
      core::HybridWorkflow::MachinePassStream(dataset, threshold, threads, &stream)
          .ValueOrDie();
  const auto materialized =
      core::HybridWorkflow::MachinePass(dataset, similarity::SetMeasure::kJaccard, threshold,
                                        core::CandidateStrategy::kAllPairsJoin, threads)
          .ValueOrDie();
  const bool stream_identical = stream_stats.spilled_bytes > 0 &&
                                SamePairs(stream.MaterializeSorted().ValueOrDie(), materialized);

  std::cout << "identity across budgets: " << (identical ? "PASS" : "FAIL") << "\n"
            << "smallest budget spilled: " << (smallest_spilled ? "PASS" : "FAIL") << "\n"
            << "machine-pass stream (" << WithThousands(stream_stats.spilled_bytes)
            << " B spilled) equals MachinePass: " << (stream_identical ? "PASS" : "FAIL")
            << "\n";

  const core::WorkflowResult& result = smallest.result;
  std::cout << "\nJSON for BENCH_e2e_stream.json:\n"
            << "{\n"
            << "  \"scale_factor\": " << FormatDouble(scale, 1) << ",\n"
            << "  \"records\": " << dataset.table.num_records() << ",\n"
            << "  \"threshold\": " << FormatDouble(threshold, 1) << ",\n"
            << "  \"threads\": " << threads << ",\n"
            << "  \"hit_type\": \"" << hit_type << "\",\n"
            << "  \"crowd_partition_pairs\": " << partition_pairs << ",\n"
            << "  \"generate_seconds\": " << FormatDouble(generate_s, 1) << ",\n"
            << "  \"candidate_pairs\": " << result.num_candidate_pairs << ",\n"
            << "  \"hits\": " << result.crowd_stats.num_hits << ",\n"
            << "  \"assignments\": " << result.crowd_stats.num_assignments << ",\n"
            << "  \"entity_clusters\": " << smallest.clusters.num_clusters() << ",\n"
            << "  \"budgets\": [\n";
  for (size_t i = 0; i < readings.size(); ++i) {
    const Reading& r = readings[i];
    std::cout << "    {\"memory_budget_bytes\": " << r.budget
              << ", \"seconds\": " << FormatDouble(r.seconds, 3)
              << ", \"peak_rss_bytes\": " << r.peak_rss_bytes
              << ", \"stream_spilled_bytes\": " << r.stream_spilled_bytes
              << ", \"vote_spilled_bytes\": " << r.vote_spilled_bytes
              << ", \"boundary_spilled_bytes\": " << r.boundary_spilled_bytes
              << ", \"crowd_partitions\": " << r.crowd_partitions << "}"
              << (i + 1 < readings.size() ? "," : "") << "\n";
  }
  std::cout << "  ],\n"
            << "  \"byte_identical\": " << (identical ? "true" : "false") << ",\n"
            << "  \"smallest_budget_spilled\": " << (smallest_spilled ? "true" : "false")
            << ",\n"
            << "  \"machine_pass_stream_identical\": "
            << (stream_identical ? "true" : "false") << "\n"
            << "}\n";
  return identical && smallest_spilled && stream_identical ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace crowder

int main() { return crowder::bench::Main(); }

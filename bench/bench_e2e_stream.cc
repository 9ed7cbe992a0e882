// End-to-end streaming vs materialized *full workflow* (machine pass → HIT
// generation → crowd → aggregation → clustering) on a scaled Product
// dataset: the wall-clock cost of the partitioned crowd boundary, the peak
// RSS both modes reach, and a byte-identity check over the final ranked
// list (the partitioned boundary's core contract, re-verified on every
// smoke run). Emits a JSON block for BENCH_e2e_stream.json.
//
// Scale, budget, and partitioning come from the environment so the same
// binary serves the smoke test (small, spill forced by a tiny budget) and
// the headline 1M-record run recorded in BENCH_e2e_stream.json:
//
//   CROWDER_E2E_SCALE      Product scale_factor (default 2 ≈ 4.3k records;
//                          461 ≈ 1.0M records)
//   CROWDER_E2E_BUDGET     memory budget in bytes for every bounded
//                          structure (default 4096; 268435456 = the 256 MB
//                          acceptance run)
//   CROWDER_E2E_PARTITION  crowd partition capacity in pairs (default 0 =
//                          derived from the budget)
//   CROWDER_E2E_THREADS    num_threads for both modes (default 1)
//   CROWDER_E2E_HIT_TYPE   "pair" (default; HIT count scales with |P|) or
//                          "cluster" (two-tiered over component buckets)
//   CROWDER_E2E_THRESHOLD  likelihood threshold (default 0.5, matching
//                          BENCH_stream.json's machine-pass baseline)
#include <sys/resource.h>

#include "bench/bench_common.h"

namespace crowder {
namespace bench {
namespace {

// Peak resident set size of this process so far, in bytes (Linux reports
// ru_maxrss in KiB). Monotone: the streaming mode must run FIRST to get an
// honest bound — once the materialized mode has inflated the peak, it can
// never shrink.
uint64_t PeakRssBytes() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

int Main() {
  const double scale = EnvNumber("CROWDER_E2E_SCALE", 2.0);
  const uint64_t budget = EnvNumber<uint64_t>("CROWDER_E2E_BUDGET", 4096);
  // The smoke default (128) splits the ~471 smoke-scale pairs across ~4
  // crowd partitions, so the partitioned boundary is genuinely exercised on
  // every smoke run.
  const uint64_t partition_pairs = EnvNumber<uint64_t>("CROWDER_E2E_PARTITION", 128);
  const uint32_t threads = EnvNumber<uint32_t>("CROWDER_E2E_THREADS", 1, 0, exec::kMaxThreads);
  const std::string hit_type = EnvString("CROWDER_E2E_HIT_TYPE", "pair");
  const double threshold = EnvNumber("CROWDER_E2E_THRESHOLD", 0.5);

  Banner("End-to-end streaming vs materialized workflow (Product, scale " +
         FormatDouble(scale, 1) + ", threshold " + FormatDouble(threshold, 1) + ", budget " +
         WithThousands(budget) + " B, partition " + WithThousands(partition_pairs) +
         " pairs, " + hit_type + "-based HITs, threads " + std::to_string(threads) + ")");

  data::ProductConfig config;
  config.scale_factor = scale;
  WallTimer timer;
  const data::Dataset dataset = data::GenerateProduct(config).ValueOrDie();
  const double generate_s = timer.ElapsedSeconds();
  std::cout << "generate: " << FormatDouble(generate_s, 1) << " s ("
            << WithThousands(dataset.table.num_records()) << " records)\n";

  core::WorkflowConfig base;
  base.measure = similarity::SetMeasure::kJaccard;
  base.likelihood_threshold = threshold;
  base.num_threads = threads;
  base.hit_type =
      hit_type == "cluster" ? core::HitType::kClusterBased : core::HitType::kPairBased;
  base.aggregation = core::AggregationMethod::kDawidSkene;
  base.seed = 42;

  // Streaming first: PeakRssBytes is monotone, so this ordering gives the
  // streaming mode an honest peak-RSS reading.
  core::WorkflowConfig streaming_config = base;
  streaming_config.execution_mode = core::ExecutionMode::kStreaming;
  streaming_config.memory_budget_bytes = budget;
  streaming_config.crowd_partition_pairs = partition_pairs;
  timer.Reset();
  const auto streaming =
      core::HybridWorkflow(streaming_config).Run(dataset).ValueOrDie();
  const double match_threshold = core::ResolutionOptions{}.match_threshold;
  core::StreamingResolver resolver(static_cast<uint32_t>(dataset.table.num_records()));
  for (const auto& rp : streaming.ranked) {
    if (rp.score >= match_threshold) CROWDER_CHECK(resolver.AddMatch(rp.a, rp.b).ok());
  }
  const auto streaming_clusters = resolver.Finish().ValueOrDie();
  const double streaming_s = timer.ElapsedSeconds();
  const uint64_t streaming_rss = PeakRssBytes();
  std::cout << "streaming:    " << FormatDouble(streaming_s, 2) << " s ("
            << WithThousands(streaming.num_candidate_pairs) << " pairs, "
            << streaming.crowd_stats.num_hits << " HITs, "
            << streaming.pipeline_stats.crowd_partitions << " crowd partitions, stream spill "
            << WithThousands(streaming.pipeline_stats.spilled_bytes) << " B, vote spill "
            << WithThousands(streaming.pipeline_stats.vote_spilled_bytes)
            << " B, peak RSS " << WithThousands(streaming_rss) << " B)\n";

  // Materialized baseline (clustered with the same transitive-closure rule
  // so the cluster comparison is apples-to-apples).
  timer.Reset();
  const auto materialized = core::HybridWorkflow(base).Run(dataset).ValueOrDie();
  core::ResolutionOptions closure;
  closure.transitive_closure = true;
  const auto materialized_clusters =
      core::ResolveEntities(static_cast<uint32_t>(dataset.table.num_records()),
                            materialized.ranked, closure)
          .ValueOrDie();
  const double materialized_s = timer.ElapsedSeconds();
  const uint64_t materialized_rss = PeakRssBytes();
  std::cout << "materialized: " << FormatDouble(materialized_s, 2) << " s ("
            << WithThousands(materialized.num_candidate_pairs) << " pairs, "
            << materialized.crowd_stats.num_hits << " HITs, peak RSS "
            << WithThousands(materialized_rss) << " B)\n";

  // Byte-identity across the whole workflow: ranked list (post-sort), crowd
  // statistics, and the entity partition.
  bool identical = streaming.ranked.size() == materialized.ranked.size() &&
                   streaming.num_candidate_pairs == materialized.num_candidate_pairs &&
                   streaming.crowd_stats.num_hits == materialized.crowd_stats.num_hits &&
                   streaming.crowd_stats.num_assignments ==
                       materialized.crowd_stats.num_assignments &&
                   streaming.crowd_stats.cost_dollars ==
                       materialized.crowd_stats.cost_dollars &&
                   streaming.crowd_stats.total_seconds ==
                       materialized.crowd_stats.total_seconds &&
                   streaming_clusters.cluster_of == materialized_clusters.cluster_of;
  for (size_t i = 0; identical && i < materialized.ranked.size(); ++i) {
    identical = streaming.ranked[i].a == materialized.ranked[i].a &&
                streaming.ranked[i].b == materialized.ranked[i].b &&
                streaming.ranked[i].score == materialized.ranked[i].score;
  }
  std::cout << "byte-identity: " << (identical ? "PASS" : "FAIL") << "\n";

  std::cout << "\nJSON for BENCH_e2e_stream.json:\n"
            << "{\n"
            << "  \"scale_factor\": " << FormatDouble(scale, 1) << ",\n"
            << "  \"records\": " << dataset.table.num_records() << ",\n"
            << "  \"threshold\": " << FormatDouble(threshold, 1) << ",\n"
            << "  \"threads\": " << threads << ",\n"
            << "  \"hit_type\": \"" << hit_type << "\",\n"
            << "  \"memory_budget_bytes\": " << budget << ",\n"
            << "  \"crowd_partition_pairs\": " << partition_pairs << ",\n"
            << "  \"generate_seconds\": " << FormatDouble(generate_s, 1) << ",\n"
            << "  \"candidate_pairs\": " << streaming.num_candidate_pairs << ",\n"
            << "  \"hits\": " << streaming.crowd_stats.num_hits << ",\n"
            << "  \"assignments\": " << streaming.crowd_stats.num_assignments << ",\n"
            << "  \"crowd_partitions\": " << streaming.pipeline_stats.crowd_partitions << ",\n"
            << "  \"stream_spilled_bytes\": " << streaming.pipeline_stats.spilled_bytes
            << ",\n"
            << "  \"vote_spilled_bytes\": " << streaming.pipeline_stats.vote_spilled_bytes
            << ",\n"
            << "  \"boundary_spilled_bytes\": "
            << streaming.pipeline_stats.boundary_spilled_bytes << ",\n"
            << "  \"entity_clusters\": " << streaming_clusters.num_clusters() << ",\n"
            << "  \"streaming_seconds\": " << FormatDouble(streaming_s, 2) << ",\n"
            << "  \"streaming_peak_rss_bytes\": " << streaming_rss << ",\n"
            << "  \"materialized_seconds\": " << FormatDouble(materialized_s, 2) << ",\n"
            << "  \"materialized_peak_rss_bytes\": " << materialized_rss << ",\n"
            << "  \"byte_identical\": " << (identical ? "true" : "false") << "\n"
            << "}\n";
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace crowder

int main() { return crowder::bench::Main(); }

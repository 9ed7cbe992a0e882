// The sharded machine pass (src/shard/) on a scaled Product dataset: the
// byte-identity sweep against the single-process join at shards {1, 2, 4, 7},
// then the scale demo — one sharded run with per-shard wall/CPU/RSS and the
// coordinator's plan/ship/gather/merge accounting. Emits a JSON block for
// BENCH_shard.json and exits nonzero if any sweep point diverges from the
// single-process output by a byte.
//
// Scale and execution come from the environment so the same binary serves
// the smoke test (small, in-process workers) and the headline 10M-record
// subprocess run recorded in BENCH_shard.json:
//
//   CROWDER_SHARD_SCALE      Product scale_factor (default 2 ≈ 4.3k records;
//                            4600 ≈ 10M records)
//   CROWDER_SHARD_THRESHOLD  join threshold (default 0.5; the 10M run uses
//                            0.9 to keep the single-core wall clock sane)
//   CROWDER_SHARD_WORKERS    shard count for the scale demo (default 4)
//   CROWDER_SHARD_SHARDD     path to crowder_shardd; empty runs workers
//                            in-process (same bytes, no subprocesses)
//   CROWDER_SHARD_IDENTITY   1 (default) runs the {1,2,4,7} identity sweep;
//                            0 skips it (the demo run alone)
#include <algorithm>

#include "bench/bench_common.h"
#include "shard/coordinator.h"

namespace crowder {
namespace bench {
namespace {

struct ShardedRun {
  std::vector<similarity::ScoredPair> pairs;
  shard::ShardRunStats stats;
  double wall_s = 0.0;
};

Result<ShardedRun> RunSharded(const data::Dataset& dataset, double threshold,
                              uint32_t num_shards, const std::string& shardd) {
  shard::ShardExecOptions exec;
  exec.num_shards = num_shards;
  exec.worker_path = shardd;
  ShardedRun run;
  core::PairStream stream;
  WallTimer timer;
  CROWDER_RETURN_NOT_OK(core::HybridWorkflow::MachinePassSharded(
                            dataset, similarity::SetMeasure::kJaccard, threshold, exec,
                            &stream, &run.stats)
                            .status());
  CROWDER_ASSIGN_OR_RETURN(run.pairs, stream.MaterializeSorted());
  run.wall_s = timer.ElapsedSeconds();
  return run;
}

bool BitwiseEqual(const std::vector<similarity::ScoredPair>& a,
                  const std::vector<similarity::ScoredPair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].a != b[i].a || a[i].b != b[i].b || a[i].score != b[i].score) return false;
  }
  return true;
}

int Main() {
  const double scale = EnvNumber("CROWDER_SHARD_SCALE", 2.0);
  const double threshold = EnvNumber("CROWDER_SHARD_THRESHOLD", 0.5);
  const uint32_t workers = EnvNumber<uint32_t>("CROWDER_SHARD_WORKERS", 4, 1, 1024);
  const std::string shardd = EnvString("CROWDER_SHARD_SHARDD", "");
  const bool identity = EnvNumber<uint64_t>("CROWDER_SHARD_IDENTITY", 1) != 0;
  const char* transport = shardd.empty() ? "in-process" : "subprocess";

  Banner("Sharded machine pass (Product, scale " + FormatDouble(scale, 1) + ", threshold " +
         FormatDouble(threshold, 2) + ", " + std::to_string(workers) + " workers, " +
         transport + ")");

  data::ProductConfig config;
  config.scale_factor = scale;
  WallTimer timer;
  const data::Dataset dataset = data::GenerateProduct(config).ValueOrDie();
  const double generate_s = timer.ElapsedSeconds();
  std::cout << "generate: " << FormatDouble(generate_s, 1) << " s ("
            << WithThousands(dataset.table.num_records()) << " records)\n";

  // ---- Identity sweep: shards {1, 2, 4, 7} vs the single-process join. ----
  double single_s = 0.0;
  uint64_t num_pairs = 0;
  bool all_identical = true;
  if (identity) {
    timer.Reset();
    const auto single =
        core::HybridWorkflow::MachinePass(dataset, similarity::SetMeasure::kJaccard, threshold)
            .ValueOrDie();
    single_s = timer.ElapsedSeconds();
    num_pairs = single.size();
    std::cout << "single-process: " << FormatDouble(single_s, 2) << " s ("
              << WithThousands(single.size()) << " pairs)\n";
    for (uint32_t shards : {1u, 2u, 4u, 7u}) {
      const ShardedRun run = RunSharded(dataset, threshold, shards, shardd).ValueOrDie();
      const bool same = BitwiseEqual(single, run.pairs);
      all_identical = all_identical && same;
      std::cout << "  shards=" << shards << ": " << FormatDouble(run.wall_s, 2) << " s, "
                << WithThousands(run.pairs.size()) << " pairs, byte-identity "
                << (same ? "PASS" : "FAIL") << "\n";
    }
  }

  // ---- Scale demo: one run at the requested worker count. ----
  const ShardedRun demo = RunSharded(dataset, threshold, workers, shardd).ValueOrDie();
  if (!identity) num_pairs = demo.pairs.size();
  const shard::ShardRunStats& stats = demo.stats;
  double max_worker_wall_ms = 0.0;
  for (const auto& ws : stats.shards) max_worker_wall_ms = std::max(max_worker_wall_ms, ws.wall_ms);
  // Coordinator-side cost of reassembling the global order: gather time not
  // spent waiting out the slowest worker, plus the final sorted scan.
  const double merge_overhead_ms =
      std::max(0.0, stats.gather_wall_ms - max_worker_wall_ms);

  std::cout << "\nscale demo (" << workers << " workers, " << transport << "): "
            << FormatDouble(demo.wall_s, 2) << " s wall, "
            << WithThousands(demo.pairs.size()) << " pairs\n";
  std::cout << "  plan " << FormatDouble(stats.plan_wall_ms, 1) << " ms, ship "
            << FormatDouble(stats.ship_wall_ms, 1) << " ms, gather "
            << FormatDouble(stats.gather_wall_ms, 1) << " ms (merge overhead ~"
            << FormatDouble(merge_overhead_ms, 1) << " ms)\n";
  eval::TablePrinter table({"shard", "owned", "replicas", "pairs", "verifications",
                            "wall ms", "cpu ms", "rss KiB"});
  for (size_t s = 0; s < stats.shards.size(); ++s) {
    const shard::WorkerStats& ws = stats.shards[s];
    table.AddRow({std::to_string(s), WithThousands(ws.owned_records),
                  WithThousands(ws.replica_records), WithThousands(ws.num_pairs),
                  WithThousands(ws.pair_verifications), FormatDouble(ws.wall_ms, 1),
                  FormatDouble(ws.cpu_ms, 1), WithThousands(ws.max_rss_kb)});
  }
  std::cout << table.Render();

  std::cout << "\nJSON for BENCH_shard.json:\n"
            << "{\n"
            << "  \"scale_factor\": " << FormatDouble(scale, 1) << ",\n"
            << "  \"records\": " << dataset.table.num_records() << ",\n"
            << "  \"threshold\": " << FormatDouble(threshold, 2) << ",\n"
            << "  \"workers\": " << workers << ",\n"
            << "  \"transport\": \"" << transport << "\",\n"
            << "  \"generate_seconds\": " << FormatDouble(generate_s, 1) << ",\n"
            << "  \"candidate_pairs\": " << num_pairs << ",\n";
  if (identity) {
    std::cout << "  \"single_process_seconds\": " << FormatDouble(single_s, 2) << ",\n"
              << "  \"identity_sweep_shards\": [1, 2, 4, 7],\n"
              << "  \"byte_identical\": " << (all_identical ? "true" : "false") << ",\n";
  }
  std::cout << "  \"sharded_wall_seconds\": " << FormatDouble(demo.wall_s, 2) << ",\n"
            << "  \"plan_ms\": " << FormatDouble(stats.plan_wall_ms, 1) << ",\n"
            << "  \"ship_ms\": " << FormatDouble(stats.ship_wall_ms, 1) << ",\n"
            << "  \"gather_ms\": " << FormatDouble(stats.gather_wall_ms, 1) << ",\n"
            << "  \"merge_overhead_ms\": " << FormatDouble(merge_overhead_ms, 1) << ",\n"
            << "  \"shards\": [\n";
  for (size_t s = 0; s < stats.shards.size(); ++s) {
    const shard::WorkerStats& ws = stats.shards[s];
    std::cout << "    {\"shard\": " << s << ", \"owned\": " << ws.owned_records
              << ", \"replicas\": " << ws.replica_records << ", \"pairs\": " << ws.num_pairs
              << ", \"verifications\": " << ws.pair_verifications << ", \"wall_ms\": "
              << FormatDouble(ws.wall_ms, 1) << ", \"cpu_ms\": " << FormatDouble(ws.cpu_ms, 1)
              << ", \"max_rss_kb\": " << ws.max_rss_kb << "}"
              << (s + 1 < stats.shards.size() ? "," : "") << "\n";
  }
  std::cout << "  ]\n}\n";
  return all_identical ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace crowder

int main() { return crowder::bench::Main(); }

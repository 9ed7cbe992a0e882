// Streaming vs materialized machine pass on a scaled Product dataset: the
// throughput cost of bounded memory, plus a byte-identity check between the
// two paths (the streaming pipeline's core contract, re-verified on every
// smoke run). Emits a JSON block for BENCH_stream.json.
//
// Scale and budget come from the environment so the same binary serves the
// smoke test (small, spill forced by a tiny budget) and the headline
// 1M-record run recorded in BENCH_stream.json:
//
//   CROWDER_STREAM_SCALE   Product scale_factor (default 2 ≈ 4.3k records;
//                          461 ≈ 1.0M records)
//   CROWDER_STREAM_BUDGET  PairStream budget in bytes (default 4096;
//                          268435456 = the 256 MB acceptance run)
//   CROWDER_STREAM_THREADS num_threads for both paths (default 1)
#include "bench/bench_common.h"

namespace crowder {
namespace bench {
namespace {

int Main() {
  const double scale = EnvNumber("CROWDER_STREAM_SCALE", 2.0);
  const uint64_t budget = EnvNumber<uint64_t>("CROWDER_STREAM_BUDGET", 4096);
  const uint32_t threads = EnvNumber<uint32_t>("CROWDER_STREAM_THREADS", 1, 0, exec::kMaxThreads);
  const double threshold = 0.5;

  Banner("Streaming vs materialized machine pass (Product, scale " +
         FormatDouble(scale, 1) + ", threshold " + FormatDouble(threshold, 1) +
         ", budget " + WithThousands(budget) + " B, threads " + std::to_string(threads) + ")");

  data::ProductConfig config;
  config.scale_factor = scale;
  WallTimer timer;
  const data::Dataset dataset = data::GenerateProduct(config).ValueOrDie();
  std::cout << "generate: " << FormatDouble(timer.ElapsedSeconds(), 1) << " s ("
            << WithThousands(dataset.table.num_records()) << " records)\n";

  // Materialized baseline.
  timer.Reset();
  const auto materialized =
      core::HybridWorkflow::MachinePass(dataset, similarity::SetMeasure::kJaccard, threshold,
                                        core::CandidateStrategy::kAllPairsJoin, threads)
          .ValueOrDie();
  const double materialized_s = timer.ElapsedSeconds();
  std::cout << "materialized: " << FormatDouble(materialized_s, 2) << " s ("
            << WithThousands(materialized.size()) << " pairs)\n";

  // Streaming under the budget.
  core::PairStream stream(budget);
  timer.Reset();
  const auto stats = core::HybridWorkflow::MachinePassStream(
                         dataset, similarity::SetMeasure::kJaccard, threshold, threads, &stream)
                         .ValueOrDie();
  const double streaming_s = timer.ElapsedSeconds();
  const size_t spilled_blocks = stream.spill_file() ? stream.spill_file()->num_blocks() : 0;
  std::cout << "streaming:    " << FormatDouble(streaming_s, 2) << " s ("
            << WithThousands(stats.num_pairs) << " pairs in " << stats.num_blocks
            << " blocks of which " << spilled_blocks << " spilled ("
            << WithThousands(stats.spilled_bytes) << " B), resident "
            << WithThousands(stream.memory_bytes()) << " B)\n";

  // Byte-identity: the stream's sorted scan must equal the materialized
  // output exactly.
  size_t scanned = 0;
  bool identical = stats.num_pairs == materialized.size();
  auto status = stream.ScanSorted([&](const core::PairBlock& batch) {
    for (const auto& p : batch) {
      if (scanned >= materialized.size() || p.a != materialized[scanned].a ||
          p.b != materialized[scanned].b || p.score != materialized[scanned].score) {
        identical = false;
        return Status::Internal("divergence at pair " + std::to_string(scanned));
      }
      ++scanned;
    }
    return Status::OK();
  });
  identical = identical && status.ok() && scanned == materialized.size();
  std::cout << "byte-identity: " << (identical ? "PASS" : "FAIL") << "\n";

  const double records = static_cast<double>(dataset.table.num_records());
  std::cout << "\nJSON for BENCH_stream.json:\n"
            << "{\n"
            << "  \"scale_factor\": " << FormatDouble(scale, 1) << ",\n"
            << "  \"records\": " << dataset.table.num_records() << ",\n"
            << "  \"threshold\": " << FormatDouble(threshold, 1) << ",\n"
            << "  \"threads\": " << threads << ",\n"
            << "  \"memory_budget_bytes\": " << budget << ",\n"
            << "  \"candidate_pairs\": " << stats.num_pairs << ",\n"
            << "  \"materialized_seconds\": " << FormatDouble(materialized_s, 2) << ",\n"
            << "  \"streaming_seconds\": " << FormatDouble(streaming_s, 2) << ",\n"
            << "  \"streaming_records_per_second\": "
            << static_cast<uint64_t>(records / std::max(streaming_s, 1e-9)) << ",\n"
            << "  \"spilled_bytes\": " << stats.spilled_bytes << ",\n"
            << "  \"resident_pair_bytes\": " << stream.memory_bytes() << ",\n"
            << "  \"byte_identical\": " << (identical ? "true" : "false") << "\n"
            << "}\n";
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace crowder

int main() { return crowder::bench::Main(); }

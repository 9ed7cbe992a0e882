// crowder_bench_serve — YCSB-style workload driver for the resident service
// (serve/service.h): one ingest thread streams a dataset's records into
// EntityResolutionService::Insert while query threads read cluster
// membership from the published snapshots, closed-loop (each thread issues
// its next query as soon as the last returns) or open-loop (queries arrive
// on a fixed schedule at --target-qps and latency is measured from the
// *scheduled* arrival, so queue delay is charged — no coordinated
// omission). Reports ingest throughput and insert/query latency quantiles
// (p50/p99/p999, from common/histogram.h), optionally as a JSON block
// (--json) for BENCH_serve.json.
//
//   crowder_bench_serve [--dataset restaurant|product|productdup] [--scale F]
//                       [--csv FILE] [--seed N] [--threshold F]
//                       [--auto-match F] [--match-threshold F]
//                       [--flush-pairs N] [--pairs-per-hit N]
//                       [--publish-interval N] [--hits-per-poll N]
//                       [--inline] [--sync]
//                       [--query-threads N] [--mode closed|open]
//                       [--target-qps F] [--report OUT.csv] [--json OUT.json]
//                       [--compare-batch]
//
// A flag the usage text does not list is a usage error naming it (exit 2);
// a malformed number is an error naming its flag (exit 1).
//
// --compare-batch re-resolves the same dataset through serve::BatchResolve
// (the classic batch pipeline) and exits with code 3 unless the incremental
// partition and crowd accounting are bitwise identical — the service's
// determinism contract, enforced at benchmark scale on every recording.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "dataset_flags.h"
#include "flags.h"
#include "serve/service.h"
#include "service_flags.h"

namespace crowder {
namespace {

int Usage() {
  std::cerr <<
      R"(usage:
  crowder_bench_serve [--dataset restaurant|product|productdup] [--scale F]
                      [--csv FILE] [--seed N] [--threshold F] [--auto-match F]
                      [--match-threshold F] [--flush-pairs N] [--pairs-per-hit N]
                      [--publish-interval N] [--hits-per-poll N] [--inline] [--sync]
                      [--query-threads N] [--mode closed|open] [--target-qps F]
                      [--report OUT.csv] [--json OUT.json] [--compare-batch]
)";
  return 2;
}

using tools::Args;

Result<Args> Parse(int argc, char** argv) {
  static const tools::CommandFlags kFlags = {
      {"dataset", "scale", "csv", "seed", "threshold", "auto-match", "match-threshold",
       "flush-pairs", "pairs-per-hit", "publish-interval", "hits-per-poll", "query-threads",
       "mode", "target-qps", "report", "json"},
      {"inline", "sync", "compare-batch"}};
  return tools::ParseFlags("crowder_bench_serve", kFlags, argc, argv, 1);
}

Result<data::Dataset> LoadDataset(const Args& flags) {
  const std::string csv = flags.Get("csv", "");
  if (!csv.empty()) return data::ReadDatasetCsv(csv, csv);
  return tools::GenerateDatasetFromFlags(flags.Get("dataset", "product"), flags);
}

uint64_t ElapsedMicros(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now() - since)
                                   .count());
}

struct QueryLoad {
  ConcurrentHistogram latency_micros;  ///< per-query, merged across threads
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> not_found{0};
  std::atomic<bool> stop{false};
};

// One query thread: closed-loop issues back to back; open-loop paces
// arrivals at (target_qps / threads) and charges latency from the scheduled
// arrival time.
void QueryWorker(const serve::EntityResolutionService& service, bool open_loop,
                 double thread_qps, uint64_t seed, QueryLoad* load) {
  Rng rng(seed);
  const auto start = std::chrono::steady_clock::now();
  const std::chrono::nanoseconds interval(
      open_loop ? static_cast<int64_t>(1e9 / thread_qps) : 0);
  uint64_t issued = 0;
  while (!load->stop.load(std::memory_order_acquire)) {
    auto scheduled = std::chrono::steady_clock::now();
    if (open_loop) {
      scheduled = start + interval * static_cast<int64_t>(issued);
      std::this_thread::sleep_until(scheduled);
      if (load->stop.load(std::memory_order_acquire)) break;
    }
    ++issued;
    const std::shared_ptr<const serve::Snapshot> snapshot = service.CurrentSnapshot();
    if (snapshot->num_records == 0) {
      std::this_thread::yield();
      continue;
    }
    const uint32_t id = static_cast<uint32_t>(rng.Uniform(snapshot->num_records));
    const auto result = service.Query(id);
    load->latency_micros.Record(ElapsedMicros(scheduled));
    load->queries.fetch_add(1, std::memory_order_relaxed);
    if (!result.ok()) load->not_found.fetch_add(1, std::memory_order_relaxed);
  }
}

std::string QuantilesJson(const Histogram& h) {
  return "{\"count\": " + std::to_string(h.count()) +
         ", \"mean_us\": " + FormatDouble(h.Mean(), 1) +
         ", \"p50_us\": " + std::to_string(h.ValueAtQuantile(0.5)) +
         ", \"p99_us\": " + std::to_string(h.ValueAtQuantile(0.99)) +
         ", \"p999_us\": " + std::to_string(h.ValueAtQuantile(0.999)) +
         ", \"max_us\": " + std::to_string(h.max()) + "}";
}

void PrintQuantiles(const char* label, const Histogram& h) {
  std::cout << label << ": n=" << h.count() << " p50=" << h.ValueAtQuantile(0.5)
            << "us p99=" << h.ValueAtQuantile(0.99)
            << "us p999=" << h.ValueAtQuantile(0.999) << "us max=" << h.max() << "us\n";
}

Result<int> RunBench(const Args& flags) {
  CROWDER_ASSIGN_OR_RETURN(const data::Dataset dataset, LoadDataset(flags));
  const uint32_t num_records = static_cast<uint32_t>(dataset.table.num_records());
  CROWDER_ASSIGN_OR_RETURN(serve::ServiceConfig config, tools::ServiceConfigFromFlags(flags));
  // Match the batch pipeline's candidate rule: a two-source dataset (Product)
  // only pairs records across sources. BatchResolve reads the labels off the
  // dataset directly, so the service must gate the same way or --compare-batch
  // would report a divergence that is really a config mismatch.
  config.cross_source_only = !dataset.table.sources.empty();
  CROWDER_ASSIGN_OR_RETURN(const uint32_t query_threads,
                           flags.GetNumber<uint32_t>("query-threads", 2, 0, 256));
  const std::string mode = flags.Get("mode", "closed");
  if (mode != "closed" && mode != "open") {
    return Status::InvalidArgument("--mode must be closed or open");
  }
  const bool open_loop = mode == "open";
  CROWDER_ASSIGN_OR_RETURN(const double target_qps, flags.GetNumber("target-qps", 2000.0));
  if (open_loop && target_qps <= 0) {
    return Status::InvalidArgument("--target-qps must be positive in open-loop mode");
  }

  std::cout << "dataset: " << flags.Get("csv", flags.Get("dataset", "product")) << ", "
            << num_records << " records, " << dataset.CountMatchingPairs()
            << " matching pairs\n";
  std::cout << "workload: " << (open_loop ? "open" : "closed") << "-loop, " << query_threads
            << " query thread(s)"
            << (open_loop ? " at " + FormatDouble(target_qps, 0) + " qps target" : "")
            << "; rounds " << (config.background ? "background" : "inline") << ", delivery "
            << (config.async_delivery ? "async" : "sync") << "\n";

  CROWDER_ASSIGN_OR_RETURN(auto service, serve::EntityResolutionService::Create(config));
  QueryLoad load;
  std::vector<std::thread> workers;
  for (uint32_t t = 0; t < query_threads; ++t) {
    workers.emplace_back([&service, &load, open_loop, target_qps, query_threads, t] {
      QueryWorker(*service, open_loop, target_qps / query_threads,
                  0x9E3779B9u + static_cast<uint64_t>(t), &load);
    });
  }

  Histogram insert_micros;
  WallTimer ingest_timer;
  for (uint32_t r = 0; r < num_records; ++r) {
    const auto begin = std::chrono::steady_clock::now();
    CROWDER_RETURN_NOT_OK(service->InsertDatasetRecord(dataset, r).status());
    insert_micros.Record(ElapsedMicros(begin));
  }
  const double ingest_seconds = ingest_timer.ElapsedSeconds();
  WallTimer flush_timer;
  CROWDER_RETURN_NOT_OK(service->Flush());
  const double flush_seconds = flush_timer.ElapsedSeconds();

  load.stop.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  const Histogram query_micros = load.latency_micros.Snapshot();
  const double measured_seconds = ingest_seconds + flush_seconds;

  CROWDER_ASSIGN_OR_RETURN(const serve::ServiceReport report, service->Finish());
  const serve::ServiceStats& stats = report.stats;
  std::cout << "ingest: " << num_records << " records in " << FormatDouble(ingest_seconds, 2)
            << "s (" << FormatDouble(num_records / ingest_seconds, 0) << " records/s), drain "
            << FormatDouble(flush_seconds, 2) << "s\n";
  PrintQuantiles("insert latency", insert_micros);
  PrintQuantiles("query latency", query_micros);
  std::cout << "queries: " << load.queries.load() << " ("
            << FormatDouble(load.queries.load() / measured_seconds, 0) << "/s concurrent with "
            << "ingest), " << load.not_found.load() << " not-found\n";
  std::cout << "service: " << stats.candidate_pairs << " candidates, " << stats.auto_matches
            << " auto, " << stats.crowd_pairs << " crowd pairs in " << stats.rounds
            << " rounds / " << stats.hits_posted << " HITs, " << stats.applied_matches
            << " matches, " << stats.epochs_published << " epochs, " << stats.index_rebuilds
            << " index rebuilds\n";
  std::cout << "clusters: " << report.clusters.num_clusters() << " ("
            << report.clusters.num_duplicate_groups() << " duplicate groups); crowd "
            << report.crowd.num_assignments << " assignments, $"
            << FormatDouble(report.crowd.cost_dollars, 2) << "\n";

  bool compared = false;
  if (flags.Has("compare-batch")) {
    compared = true;
    WallTimer batch_timer;
    CROWDER_ASSIGN_OR_RETURN(const serve::ServiceReport batch, BatchResolve(dataset, config));
    const double batch_seconds = batch_timer.ElapsedSeconds();
    const bool clusters_equal = report.clusters.cluster_of == batch.clusters.cluster_of &&
                                report.clusters.clusters == batch.clusters.clusters;
    const bool accounting_equal =
        report.crowd.num_assignments == batch.crowd.num_assignments &&
        report.crowd.total_comparisons == batch.crowd.total_comparisons &&
        report.crowd.num_distinct_workers == batch.crowd.num_distinct_workers &&
        report.crowd.cost_dollars == batch.crowd.cost_dollars;
    std::cout << "batch reference: " << FormatDouble(batch_seconds, 2) << "s; clusters "
              << (clusters_equal ? "identical" : "DIVERGED") << ", crowd accounting "
              << (accounting_equal ? "identical" : "DIVERGED") << "\n";
    if (!clusters_equal || !accounting_equal) return 3;
  }

  const std::string report_path = flags.Get("report", "");
  if (!report_path.empty()) {
    CROWDER_RETURN_NOT_OK(serve::WriteClusterReport(report.clusters, report_path));
    std::cout << "wrote cluster report to " << report_path << "\n";
  }

  const std::string json_path = flags.Get("json", "");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) return Status::IOError("cannot open " + json_path);
    out << "{\n"
        << "  \"records\": " << num_records << ",\n"
        << "  \"query_threads\": " << query_threads << ",\n"
        << "  \"mode\": \"" << mode << "\",\n"
        << "  \"ingest_seconds\": " << FormatDouble(ingest_seconds, 3) << ",\n"
        << "  \"drain_seconds\": " << FormatDouble(flush_seconds, 3) << ",\n"
        << "  \"ingest_records_per_second\": " << FormatDouble(num_records / ingest_seconds, 1)
        << ",\n"
        << "  \"insert_latency\": " << QuantilesJson(insert_micros) << ",\n"
        << "  \"query_latency\": " << QuantilesJson(query_micros) << ",\n"
        << "  \"queries_per_second\": "
        << FormatDouble(load.queries.load() / measured_seconds, 1) << ",\n"
        << "  \"candidate_pairs\": " << stats.candidate_pairs << ",\n"
        << "  \"crowd_pairs\": " << stats.crowd_pairs << ",\n"
        << "  \"crowd_rounds\": " << stats.rounds << ",\n"
        << "  \"hits\": " << stats.hits_posted << ",\n"
        << "  \"applied_matches\": " << stats.applied_matches << ",\n"
        << "  \"epochs\": " << stats.epochs_published << ",\n"
        << "  \"index_rebuilds\": " << stats.index_rebuilds << ",\n"
        << "  \"clusters\": " << report.clusters.num_clusters() << ",\n"
        << "  \"crowd_assignments\": " << report.crowd.num_assignments << ",\n"
        << "  \"cost_dollars\": " << FormatDouble(report.crowd.cost_dollars, 2) << ",\n"
        << "  \"batch_compared\": " << (compared ? "true" : "false") << "\n"
        << "}\n";
    if (!out.good()) return Status::IOError("write to " + json_path + " failed");
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace crowder

int main(int argc, char** argv) {
  auto flags = crowder::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status().ToString() << "\n";
    return crowder::Usage();
  }
  auto code = crowder::RunBench(*flags);
  if (!code.ok()) {
    std::cerr << "error: " << code.status().ToString() << "\n";
    return 1;
  }
  return *code;
}

// The benchmark's workloads: how each one generates its input from a seed,
// what one repetition runs (records in → result out), which per-layer
// values it measures, and the second route whose output it must equal.
#ifndef CROWDER_BENCHMARK_WORKLOADS_H_
#define CROWDER_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/result.h"
#include "data/dataset.h"
#include "trace.h"

namespace crowder {
namespace bench {

struct RunOptions {
  /// Added to every input generator's default seed (0 = the library's own
  /// datasets) and to the query generator's.
  uint64_t seed = 0;
};

/// \brief What one repetition measured.
struct RepResult {
  /// Records in → result out, seconds; excludes set-up and probes.
  double e2e_s = 0.0;
  /// FNV-1a digest of the output (see Fnv in workloads.cc for what each
  /// workload hashes).
  uint64_t digest = 0;
  /// Per-layer values, keyed by the names in LayerMetrics().
  std::map<std::string, double> layer;
  /// serve_ingest only: per-operation latencies in microseconds, merged
  /// across repetitions before quantiles are taken.
  Histogram insert_us;
  Histogram query_us;
  /// Peak RSS during the repetition, MB (filled in by the harness).
  double peak_rss_mb = 0.0;
  /// Reference-host seconds per measured second just before the repetition
  /// (filled in by the harness).
  double host_speed = 1.0;
  /// Operations attempted and failed (serve_ingest: inserts + queries;
  /// otherwise the repetition itself).
  uint64_t operations = 1;
  uint64_t failed_operations = 0;
};

/// Worker threads of the join and of the crowd simulation. One: on a
/// few-vCPU shared host, a parallel pass waits for its slowest thread, so
/// any neighbour's load on any core lands in its wall time; a single thread
/// is slowed only by load on its own core.
constexpr uint32_t kThreads = 1;

/// \brief One workload; BENCHMARK.json records why each one exists.
struct Workload {
  const char* name;
  /// Generator scale factor of the full-size input.
  double scale;
  Result<data::Dataset> (*generate)(uint64_t seed, double scale);
  /// Set-up beyond loading the CSV, timed into setup_s (nullptr: none).
  Status (*setup)(const data::Dataset& dataset, const RunOptions& options);
  /// One repetition. With an enabled tracer it also runs the layer probes
  /// (outside the e2e interval) and opens spans around every library call.
  Result<RepResult> (*run)(const data::Dataset& dataset, const RunOptions& options,
                           Tracer* tracer);
  /// Digest of the same result reached by another route (nullptr: none).
  Result<uint64_t> (*reference)(const data::Dataset& dataset, const RunOptions& options);
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// Every per-layer metric, in report order.
const std::vector<MetricSpec>& LayerMetrics();

/// Per-layer time metrics read off the trace: metric name → span name whose
/// summed duration (one repetition) is the metric.
const std::vector<std::pair<const char*, const char*>>& SpanMetrics();

}  // namespace bench
}  // namespace crowder

#endif  // CROWDER_BENCHMARK_WORKLOADS_H_

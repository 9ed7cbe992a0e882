#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "common/timer.h"
#include "core/driver.h"
#include "core/resolution.h"
#include "core/stages.h"
#include "core/workflow.h"
#include "crowd/async_backend.h"
#include "crowd/backend.h"
#include "data/generators.h"
#include "graph/pair_graph.h"
#include "hitgen/pair_hit_generator.h"
#include "hitgen/two_tiered_generator.h"
#include "serve/service.h"
#include "shard/coordinator.h"
#include "similarity/parallel_join.h"

namespace crowder {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;
using similarity::ScoredPair;

constexpr double kMachineThreshold = 0.5;  // machine_join and serve_ingest
constexpr double kCrowdThreshold = 0.3;    // hybrid_cluster and stream_defended
constexpr double kQueryRate = 2000.0;      // serve_ingest open-loop queries per second

// ---------------------------------------------------------------------------
// Inputs. --seed is added to each generator's default seed, so seed 0 is the
// library's own dataset. The simulated crowd keeps its default seed: the seed
// picks the input, the workload fixes everything else.
// ---------------------------------------------------------------------------

Result<data::Dataset> GenerateProduct(uint64_t seed, double scale) {
  data::ProductConfig config;
  config.seed += seed;
  config.scale_factor = scale;
  return data::GenerateProduct(config);
}

Result<data::Dataset> GenerateProductDup(uint64_t seed, double scale) {
  data::ProductDupConfig config;
  config.seed += seed;
  config.scale_factor = scale;
  config.product.seed += seed;
  config.product.scale_factor = scale;
  return data::GenerateProductDup(config);
}

// ---------------------------------------------------------------------------
// Output digests: FNV-1a over the sorted (a, b, score bits) of a machine
// pass; the ranked list plus every record's cluster id of a workflow run;
// the partition plus the crowd accounting of a service run.
// ---------------------------------------------------------------------------

class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void Add(T value) {
    Bytes(&value, sizeof(value));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

uint64_t PairsDigest(const std::vector<ScoredPair>& pairs) {
  Fnv fnv;
  for (const ScoredPair& p : pairs) {
    fnv.Add(p.a);
    fnv.Add(p.b);
    fnv.Add(p.score);
  }
  return fnv.value();
}

uint64_t WorkflowDigest(const std::vector<eval::RankedPair>& ranked,
                        const core::EntityClusters& clusters) {
  Fnv fnv;
  for (const eval::RankedPair& p : ranked) {
    fnv.Add(p.a);
    fnv.Add(p.b);
    fnv.Add(p.score);
  }
  for (const uint32_t c : clusters.cluster_of) fnv.Add(c);
  return fnv.value();
}

uint64_t ServiceDigest(const serve::ServiceReport& report) {
  Fnv fnv;
  for (const uint32_t c : report.clusters.cluster_of) fnv.Add(c);
  fnv.Add(report.crowd.num_assignments);
  fnv.Add(report.crowd.total_comparisons);
  fnv.Add(report.crowd.num_distinct_workers);
  fnv.Add(report.crowd.cost_dollars);
  return fnv.value();
}

// ---------------------------------------------------------------------------
// Layer probes (traced repetitions only, outside the e2e interval): the
// machine pass's two layers and HIT generation, called directly so their
// time and counters are measured where the work happens.
// ---------------------------------------------------------------------------

similarity::JoinInput ProbeTokenize(const data::Dataset& dataset, Tracer* tracer) {
  ScopedSpan span(tracer, "text.BuildJoinInput");
  return core::internal::BuildJoinInput(dataset, core::CandidateStrategy::kAllPairsJoin,
                                        nullptr);
}

void SetJoinCounters(uint64_t verifications, uint64_t emitted, RepResult* rep) {
  rep->layer["similarity.pair_verifications"] = static_cast<double>(verifications);
  rep->layer["similarity.emitted_pairs"] = static_cast<double>(emitted);
  rep->layer["similarity.emit_per_verification"] =
      verifications == 0 ? 0.0 : static_cast<double>(emitted) / verifications;
}

Result<std::vector<ScoredPair>> ProbeJoin(const data::Dataset& dataset, double threshold,
                                          Tracer* tracer, RepResult* rep) {
  const similarity::JoinInput input = ProbeTokenize(dataset, tracer);
  similarity::JoinOptions options;
  options.threshold = threshold;
  similarity::ParallelJoinOptions exec;
  exec.num_threads = kThreads;
  similarity::JoinStats stats;
  ScopedSpan span(tracer, "similarity.ParallelAllPairsJoin");
  CROWDER_ASSIGN_OR_RETURN(std::vector<ScoredPair> pairs,
                           similarity::ParallelAllPairsJoin(input, options, exec, &stats));
  span.Arg("pair_verifications", static_cast<double>(stats.pair_verifications));
  SetJoinCounters(stats.pair_verifications, pairs.size(), rep);
  return pairs;
}

Status ProbeHitGeneration(const data::Dataset& dataset, const core::WorkflowConfig& config,
                          Tracer* tracer, RepResult* rep) {
  CROWDER_ASSIGN_OR_RETURN(const std::vector<ScoredPair> pairs,
                           ProbeJoin(dataset, config.likelihood_threshold, tracer, rep));
  std::vector<graph::Edge> edges;
  edges.reserve(pairs.size());
  for (const ScoredPair& p : pairs) edges.push_back({p.a, p.b});
  ScopedSpan span(tracer, "hitgen.Generate");
  if (config.hit_type == core::HitType::kClusterBased) {
    CROWDER_ASSIGN_OR_RETURN(
        graph::PairGraph graph,
        graph::PairGraph::Create(static_cast<uint32_t>(dataset.table.num_records()), edges));
    return hitgen::TwoTieredGenerator().Generate(&graph, config.cluster_size).status();
  }
  return hitgen::GeneratePairHits(edges, config.pairs_per_hit).status();
}

// ---------------------------------------------------------------------------
// machine_join
// ---------------------------------------------------------------------------

Result<RepResult> RunMachineJoin(const data::Dataset& dataset, const RunOptions&,
                                 Tracer* tracer) {
  RepResult rep;
  std::vector<ScoredPair> pairs;
  WallTimer timer;
  {
    ScopedSpan span(tracer, "core.MachinePass");
    CROWDER_ASSIGN_OR_RETURN(pairs, core::HybridWorkflow::MachinePass(
                                        dataset, similarity::SetMeasure::kJaccard,
                                        kMachineThreshold,
                                        core::CandidateStrategy::kAllPairsJoin, kThreads));
  }
  rep.e2e_s = timer.ElapsedSeconds();
  rep.digest = PairsDigest(pairs);
  if (tracer->enabled()) {
    CROWDER_RETURN_NOT_OK(ProbeJoin(dataset, kMachineThreshold, tracer, &rep).status());
  }
  return rep;
}

// The same pairs through the sharded runtime: four in-process shards, whose
// merged stream must equal the single-process pass byte for byte.
Result<uint64_t> ShardedJoinDigest(const data::Dataset& dataset, const RunOptions&) {
  shard::ShardExecOptions exec;
  exec.num_shards = 4;
  core::PairStream stream;  // unbounded: the merge runs in memory
  CROWDER_RETURN_NOT_OK(core::HybridWorkflow::MachinePassSharded(
                            dataset, similarity::SetMeasure::kJaccard, kMachineThreshold, exec,
                            &stream, nullptr)
                            .status());
  CROWDER_ASSIGN_OR_RETURN(const std::vector<ScoredPair> pairs, stream.MaterializeSorted());
  return PairsDigest(pairs);
}

// ---------------------------------------------------------------------------
// hybrid_cluster / stream_defended. Untraced repetitions time the shipped
// entry point, HybridWorkflow::Run. Traced ones spell its driver loop
// (core/workflow.cc) out here, one span per call. Every repetition must
// reproduce the untraced warm-up's digest, so the two routes are checked
// equal on every traced run.
// ---------------------------------------------------------------------------

Result<core::WorkflowResult> DriveWorkflow(const core::WorkflowConfig& config,
                                           const data::Dataset& dataset, Tracer* tracer) {
  CROWDER_RETURN_NOT_OK(core::ValidateWorkflowConfig(config));
  crowd::SimulatedCrowdBackend::Options sim_options;
  sim_options.num_threads = config.num_threads;
  CROWDER_ASSIGN_OR_RETURN(std::unique_ptr<crowd::SimulatedCrowdBackend> sim,
                           crowd::SimulatedCrowdBackend::Create(
                               config.crowd, config.seed, dataset.truth.entity_of, sim_options));
  std::unique_ptr<crowd::AsyncCrowdBackend> async;
  crowd::CrowdBackend* backend = sim.get();
  if (config.async_crowd) {
    async = std::make_unique<crowd::AsyncCrowdBackend>(sim.get(), config.crowd, config.seed);
    backend = async.get();
  }

  core::WorkflowDriver driver(config);
  {
    ScopedSpan span(tracer, "core.Start");
    CROWDER_RETURN_NOT_OK(driver.Start(dataset));
  }
  while (!driver.done()) {
    crowd::Ticket ticket = 0;
    {
      ScopedSpan span(tracer, "crowd.Post");
      CROWDER_ASSIGN_OR_RETURN(ticket, backend->Post(driver.PendingHits()));
    }
    bool complete = false;
    while (!complete) {
      crowd::VoteBatch votes;
      {
        ScopedSpan span(tracer, "crowd.Poll");
        CROWDER_ASSIGN_OR_RETURN(votes, backend->Poll(ticket));
      }
      complete = votes.complete;
      ScopedSpan span(tracer, "core.SubmitVotes");
      CROWDER_RETURN_NOT_OK(driver.SubmitVotes(std::move(votes)));
    }
    ScopedSpan span(tracer, "core.Step");
    CROWDER_RETURN_NOT_OK(driver.Step());
    if (driver.done()) span.Rename("core.Step.aggregate");
  }
  crowd::CrowdRunResult stats;
  {
    ScopedSpan span(tracer, "crowd.Finish");
    CROWDER_ASSIGN_OR_RETURN(stats, backend->Finish());
  }
  CROWDER_RETURN_NOT_OK(driver.SubmitCrowdStats(std::move(stats)));
  ScopedSpan span(tracer, "core.TakeResult");
  return driver.TakeResult();
}

double StageSeconds(const core::PipelineStats& stats, const std::string& name) {
  for (const core::StageTiming& stage : stats.stages) {
    if (stage.name == name) return stage.wall_ms / 1e3;
  }
  return 0.0;
}

void SetWorkflowLayers(const core::WorkflowResult& result, RepResult* rep) {
  const core::PipelineStats& ps = result.pipeline_stats;
  auto& layer = rep->layer;
  layer["core.stage_machine_pass_s"] = StageSeconds(ps, "machine-pass");
  layer["core.stage_hit_gen_s"] = StageSeconds(ps, "hit-gen");
  layer["core.stage_crowd_s"] = StageSeconds(ps, "crowd");
  layer["core.stage_aggregate_s"] = StageSeconds(ps, "aggregate");
  layer["core.rounds"] = static_cast<double>(result.crowd_rounds.size());
  layer["core.round_p50_us"] = static_cast<double>(ps.round_wall_micros.ValueAtQuantile(0.5));
  layer["core.round_p99_us"] = static_cast<double>(ps.round_wall_micros.ValueAtQuantile(0.99));
  layer["core.stream_spilled_bytes"] = static_cast<double>(ps.spilled_bytes);
  layer["core.vote_spilled_bytes"] = static_cast<double>(ps.vote_spilled_bytes);
  layer["core.boundary_spilled_bytes"] = static_cast<double>(ps.boundary_spilled_bytes);
  layer["core.crowd_partitions"] = static_cast<double>(ps.crowd_partitions);

  const crowd::CrowdRunResult& crowd = result.crowd_stats;
  layer["hitgen.hits"] = crowd.num_hits;
  layer["hitgen.pairs_per_hit"] =
      crowd.num_hits == 0 ? 0.0 : static_cast<double>(result.num_candidate_pairs) / crowd.num_hits;
  layer["crowd.assignments"] = crowd.num_assignments;
  layer["crowd.pairs_asked"] = static_cast<double>(result.crowd_pairs_asked);
  layer["crowd.pairs_inferred"] = static_cast<double>(result.pairs_inferred);
  layer["crowd.workers_banned"] = static_cast<double>(result.filtered_workers.size());
  double kappa = 0.0;
  uint64_t votes = 0;
  for (const core::CrowdRoundStats& round : result.crowd_rounds) {
    kappa += round.fleiss_kappa * static_cast<double>(round.num_votes);
    votes += round.num_votes;
  }
  layer["crowd.kappa_mean"] = votes == 0 ? 0.0 : kappa / static_cast<double>(votes);
  layer["crowd.cost_usd"] = crowd.cost_dollars;
  layer["crowd.hours"] = crowd.total_seconds / 3600.0;
}

Result<RepResult> RunWorkflow(const core::WorkflowConfig& config, const data::Dataset& dataset,
                              Tracer* tracer) {
  const uint32_t num_records = static_cast<uint32_t>(dataset.table.num_records());
  const bool streaming = config.execution_mode == core::ExecutionMode::kStreaming;
  RepResult rep;
  core::WorkflowResult result;
  core::EntityClusters clusters;
  WallTimer timer;
  {
    ScopedSpan span(tracer, "core.HybridWorkflow");
    if (tracer->enabled()) {
      CROWDER_ASSIGN_OR_RETURN(result, DriveWorkflow(config, dataset, tracer));
    } else {
      CROWDER_ASSIGN_OR_RETURN(result, core::HybridWorkflow(config).Run(dataset));
    }
    // The program's own stage timers, next to the outside-in spans.
    for (const core::StageTiming& stage : result.pipeline_stats.stages) {
      span.Arg(stage.name + "_ms", stage.wall_ms);
    }
  }
  if (streaming) {
    // Bounded-memory clustering, as `crowder_cli run --streaming` does it.
    ScopedSpan span(tracer, "core.StreamingResolver");
    const double match_threshold = core::ResolutionOptions{}.match_threshold;
    core::StreamingResolver resolver(num_records);
    for (const eval::RankedPair& p : result.ranked) {
      if (p.score >= match_threshold) CROWDER_RETURN_NOT_OK(resolver.AddMatch(p.a, p.b));
    }
    CROWDER_ASSIGN_OR_RETURN(clusters, resolver.Finish());
  } else {
    ScopedSpan span(tracer, "core.ResolveEntities");
    CROWDER_ASSIGN_OR_RETURN(clusters, core::ResolveEntities(num_records, result.ranked));
  }
  rep.e2e_s = timer.ElapsedSeconds();
  rep.digest = WorkflowDigest(result.ranked, clusters);
  SetWorkflowLayers(result, &rep);
  rep.layer["quality.cluster_f1"] = core::EvaluateClusters(clusters, dataset).f1;
  if (tracer->enabled()) CROWDER_RETURN_NOT_OK(ProbeHitGeneration(dataset, config, tracer, &rep));
  return rep;
}

core::WorkflowConfig CrowdConfig() {
  core::WorkflowConfig config;
  config.likelihood_threshold = kCrowdThreshold;
  config.num_threads = kThreads;
  return config;
}

Result<RepResult> RunHybridCluster(const data::Dataset& dataset, const RunOptions&,
                                   Tracer* tracer) {
  core::WorkflowConfig config = CrowdConfig();
  config.hit_type = core::HitType::kClusterBased;
  config.cluster_size = 10;
  config.aggregation = core::AggregationMethod::kDawidSkene;
  config.execution_mode = core::ExecutionMode::kMaterialized;
  return RunWorkflow(config, dataset, tracer);
}

Result<RepResult> RunStreamDefended(const data::Dataset& dataset, const RunOptions&,
                                    Tracer* tracer) {
  core::WorkflowConfig config = CrowdConfig();
  config.execution_mode = core::ExecutionMode::kStreaming;
  config.memory_budget_bytes = 256 * 1024;
  config.hit_type = core::HitType::kPairBased;
  config.pairs_per_hit = 10;
  config.question_policy = core::QuestionPolicyKind::kInferenceOrdered;
  // 20% spammers displace honest workers, who keep the default
  // reliable:noisy ratio (as `crowder_cli run --spammer-fraction 0.2`).
  const crowd::CrowdModel defaults;
  const double honest = 0.8 / (defaults.reliable_fraction + defaults.noisy_fraction);
  config.crowd.reliable_fraction = honest * defaults.reliable_fraction;
  config.crowd.noisy_fraction = honest * defaults.noisy_fraction;
  config.filter_workers = true;
  config.async_crowd = true;
  return RunWorkflow(config, dataset, tracer);
}

// ---------------------------------------------------------------------------
// serve_ingest: one ingest thread inserts in closed loop while one query
// thread reads cluster membership in open loop.
// ---------------------------------------------------------------------------

serve::ServiceConfig ServiceConfigFor(const data::Dataset& dataset) {
  serve::ServiceConfig config;
  config.threshold = kMachineThreshold;
  config.cross_source_only = !dataset.table.sources.empty();
  config.background = true;
  config.async_delivery = true;
  return config;
}

Status CreateService(const data::Dataset& dataset, const RunOptions&) {
  return serve::EntityResolutionService::Create(ServiceConfigFor(dataset)).status();
}

int64_t Nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

struct QueryLoad {
  ConcurrentHistogram latency_us;
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<bool> stop{false};
  /// Written by the query thread only; read after it is joined.
  int64_t max_late_ns = 0;
};

// Query i is due at start + i / rate whatever the service is doing, and its
// latency is charged from that due time, so a stall counts against every
// query it delays. How late the generator itself woke is reported too.
void QueryLoop(const serve::EntityResolutionService* service, uint64_t seed, Tracer* tracer,
               int64_t parent, QueryLoad* load) {
  Rng rng(0x9E3779B9u + seed);
  const auto interval = std::chrono::nanoseconds(static_cast<int64_t>(1e9 / kQueryRate));
  const auto start = Clock::now();
  for (int64_t i = 0;; ++i) {
    const auto due = start + interval * i;
    std::this_thread::sleep_until(due);
    if (load->stop.load(std::memory_order_acquire)) return;
    load->max_late_ns = std::max(load->max_late_ns, Nanos(Clock::now() - due));
    const uint32_t published = service->CurrentSnapshot()->num_records;
    if (published == 0) continue;  // nothing to ask about yet: not an attempt
    const uint32_t id = static_cast<uint32_t>(rng.Uniform(published));
    bool ok = false;
    {
      ScopedSpan span(tracer, "serve.Query", parent);
      ok = service->Query(id).ok();
    }
    load->latency_us.Record(static_cast<uint64_t>(Nanos(Clock::now() - due) / 1000));
    load->queries.fetch_add(1, std::memory_order_relaxed);
    if (!ok) load->failed.fetch_add(1, std::memory_order_relaxed);
  }
}

// Stops and joins the query thread on every path out of a repetition —
// declared after the service, so it is destroyed (joined) first.
class QueryThread {
 public:
  QueryThread(const serve::EntityResolutionService* service, uint64_t seed, Tracer* tracer,
              QueryLoad* load)
      : load_(load), thread_(QueryLoop, service, seed, tracer, tracer->CurrentSpan(), load) {}
  ~QueryThread() { Stop(); }
  QueryThread(const QueryThread&) = delete;
  QueryThread& operator=(const QueryThread&) = delete;

  void Stop() {
    load_->stop.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

 private:
  QueryLoad* load_;
  std::thread thread_;
};

Result<RepResult> RunServeIngest(const data::Dataset& dataset, const RunOptions& options,
                                 Tracer* tracer) {
  const uint32_t num_records = static_cast<uint32_t>(dataset.table.num_records());
  CROWDER_ASSIGN_OR_RETURN(
      std::unique_ptr<serve::EntityResolutionService> service,
      serve::EntityResolutionService::Create(ServiceConfigFor(dataset)));
  RepResult rep;
  QueryLoad load;
  QueryThread queries(service.get(), options.seed, tracer, &load);

  WallTimer timer;
  for (uint32_t r = 0; r < num_records; ++r) {
    const auto begin = Clock::now();
    {
      ScopedSpan span(tracer, "serve.Insert");
      CROWDER_RETURN_NOT_OK(service->InsertDatasetRecord(dataset, r).status());
    }
    rep.insert_us.Record(static_cast<uint64_t>(Nanos(Clock::now() - begin) / 1000));
  }
  const double ingest_s = timer.ElapsedSeconds();
  serve::ServiceReport report;
  {
    ScopedSpan span(tracer, "serve.Finish");
    CROWDER_ASSIGN_OR_RETURN(report, service->Finish());
  }
  rep.e2e_s = timer.ElapsedSeconds();
  queries.Stop();

  rep.digest = ServiceDigest(report);
  rep.query_us = load.latency_us.Snapshot();
  rep.operations = num_records + load.queries.load();
  rep.failed_operations = load.failed.load();
  auto& layer = rep.layer;
  layer["serve.ingest_rps"] = num_records / ingest_s;
  layer["serve.generator_late_ms_max"] = static_cast<double>(load.max_late_ns) / 1e6;
  layer["serve.rounds"] = static_cast<double>(report.stats.rounds);
  layer["serve.epochs"] = static_cast<double>(report.stats.epochs_published);
  layer["serve.index_rebuilds"] = static_cast<double>(report.stats.index_rebuilds);
  layer["hitgen.hits"] = static_cast<double>(report.stats.hits_posted);
  layer["crowd.pairs_asked"] = static_cast<double>(report.stats.crowd_pairs);
  layer["crowd.assignments"] = report.crowd.num_assignments;
  layer["crowd.cost_usd"] = report.crowd.cost_dollars;
  layer["quality.cluster_f1"] = core::EvaluateClusters(report.clusters, dataset).f1;
  return rep;
}

Result<uint64_t> BatchResolveDigest(const data::Dataset& dataset, const RunOptions&) {
  CROWDER_ASSIGN_OR_RETURN(const serve::ServiceReport report,
                           serve::BatchResolve(dataset, ServiceConfigFor(dataset)));
  return ServiceDigest(report);
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"machine_join", 14.0, GenerateProduct, nullptr, RunMachineJoin, ShardedJoinDigest},
      {"hybrid_cluster", 6.0, GenerateProduct, nullptr, RunHybridCluster, nullptr},
      {"stream_defended", 24.0, GenerateProductDup, nullptr, RunStreamDefended, nullptr},
      {"serve_ingest", 6.0, GenerateProduct, CreateService, RunServeIngest, BatchResolveDigest},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"data.load_s", "s"},
      {"text.tokenize_s", "s"},
      {"similarity.join_s", "s"},
      {"similarity.pair_verifications", "count"},
      {"similarity.emitted_pairs", "count"},
      {"similarity.emit_per_verification", "ratio"},
      {"core.start_s", "s"},
      {"core.stage_machine_pass_s", "s"},
      {"core.stage_hit_gen_s", "s"},
      {"core.stage_crowd_s", "s"},
      {"core.stage_aggregate_s", "s"},
      {"core.submit_votes_s", "s"},
      {"core.step_s", "s"},
      {"core.rounds", "count"},
      {"core.round_p50_us", "us"},
      {"core.round_p99_us", "us"},
      {"core.stream_spilled_bytes", "bytes"},
      {"core.vote_spilled_bytes", "bytes"},
      {"core.boundary_spilled_bytes", "bytes"},
      {"core.crowd_partitions", "count"},
      {"hitgen.generate_s", "s"},
      {"hitgen.hits", "count"},
      {"hitgen.pairs_per_hit", "ratio"},
      {"crowd.post_s", "s"},
      {"crowd.poll_s", "s"},
      {"crowd.assignments", "count"},
      {"crowd.pairs_asked", "count"},
      {"crowd.pairs_inferred", "count"},
      {"crowd.workers_banned", "count"},
      {"crowd.kappa_mean", "ratio"},
      {"crowd.cost_usd", "USD"},
      {"crowd.hours", "h"},
      {"quality.cluster_f1", "ratio"},
      {"serve.ingest_rps", "1/s"},
      {"serve.insert_p50_us", "us"},
      {"serve.insert_p99_us", "us"},
      {"serve.insert_p999_us", "us"},
      {"serve.query_p50_us", "us"},
      {"serve.query_p99_us", "us"},
      {"serve.query_p999_us", "us"},
      {"serve.generator_late_ms_max", "ms"},
      {"serve.rounds", "count"},
      {"serve.epochs", "count"},
      {"serve.index_rebuilds", "count"},
      {"serve.finish_s", "s"},
      {"proc.cpu_s", "s"},
      {"proc.cpu_util", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  return kMetrics;
}

const std::vector<std::pair<const char*, const char*>>& SpanMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kSpans = {
      {"text.tokenize_s", "text.BuildJoinInput"},
      {"similarity.join_s", "similarity.ParallelAllPairsJoin"},
      {"core.start_s", "core.Start"},
      {"core.submit_votes_s", "core.SubmitVotes"},
      {"core.step_s", "core.Step"},
      {"hitgen.generate_s", "hitgen.Generate"},
      {"crowd.post_s", "crowd.Post"},
      {"crowd.poll_s", "crowd.Poll"},
      {"serve.finish_s", "serve.Finish"},
  };
  return kSpans;
}

}  // namespace bench
}  // namespace crowder

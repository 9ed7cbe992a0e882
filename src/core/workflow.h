// The CrowdER hybrid human-machine workflow (§2.2, Figure 1):
//
//   records --machine pass--> likelihoods --prune--> pairs P
//          --HIT generation--> HITs --crowd--> votes --aggregate--> matches
//
// HybridWorkflow wires the substrates together behind one configuration
// struct and returns both the ranked match list and the operational
// statistics (HIT count, cost, latency) the paper's experiments report.
// Run() is a thin loop over core::WorkflowDriver (the step machine that
// surfaces crowd work one HIT batch at a time) and a crowd::CrowdBackend
// (who answers it — by default the deterministic simulator; pass your own
// backend to replay a recorded run or attach a real crowd).
// Every run takes one path: candidate pairs flow through a disk-spillable
// stream and cross the crowd boundary one bounded partition at a time.
// memory_budget_bytes, stream_block_records and crowd_partition_pairs only
// bound that path; the output is byte-identical at any setting — the golden
// workflow test pins it.
#ifndef CROWDER_CORE_WORKFLOW_H_
#define CROWDER_CORE_WORKFLOW_H_

#include <cstdint>
#include <vector>

#include "aggregate/dawid_skene.h"
#include "common/result.h"
#include "core/pipeline.h"
#include "crowd/platform.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "shard/coordinator.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace crowd {
class CrowdBackend;  // crowd/backend.h
}  // namespace crowd

namespace core {

enum class HitType { kPairBased, kClusterBased };
enum class AggregationMethod { kMajorityVote, kDawidSkene };

/// \brief In what order — and whether — candidate pairs are put to the
/// crowd (core/question_policy.h; the selection layer on WorkflowDriver).
enum class QuestionPolicyKind {
  /// Ask every pair, in the machine pass' (a, b)-sorted order — today's
  /// behavior, bitwise unchanged (golden-pinned).
  kFixedOrder,
  /// Adaptive selection: between sub-rounds the driver folds the answers
  /// into a graph::AnswerClosure, skips every pair the closure already
  /// implies (recording it as *inferred* instead of crowdsourcing it), and
  /// ranks the rest by expected information gain — machine likelihood
  /// weighted by the records' current cluster sizes (the degree /
  /// component-size heuristic of "Select Your Questions Wisely",
  /// Yalavarthi et al.). Selection reorders only within the resident crowd
  /// partition (the stream's global order is the partition sequence; one
  /// partition when unbounded). Results are deterministic but not
  /// byte-identical to kFixedOrder — fewer pairs reach the crowd.
  kInferenceOrdered,
};

/// \brief How HybridWorkflow::MachinePass finds candidate pairs (footnote 1
/// of the paper: indexing techniques avoid the all-pairs comparison). The
/// workflow always runs kAllPairsJoin; the other two are the paper's
/// baselines, measured through MachinePass (bench_table2).
enum class CandidateStrategy {
  /// Prefix-filtering AllPairs join: exact (same output as exhaustive).
  kAllPairsJoin,
  /// Token blocking + verification: exact for overlap measures with a
  /// positive threshold (qualifying pairs share >= 1 token).
  kBlockingVerify,
  /// Multi-pass sorted neighborhood + verification: approximate — bounded
  /// work, may miss pairs whose keys never sort nearby.
  kSortedNeighborhoodVerify,
};

/// \brief Whether the bounded-memory knobs apply. Both values run the same
/// partitioned path; no code is selected by it, and kMaterialized is the
/// same run as kStreaming with the three knobs left at 0.
enum class ExecutionMode {
  /// The unbounded run: memory_budget_bytes, stream_block_records and
  /// crowd_partition_pairs are treated as 0 — no budget, the join's default
  /// blocks, one crowd partition, nothing spilled to disk.
  kMaterialized,
  /// The knobs apply: the candidate stream, the component buckets and the
  /// vote table spill past memory_budget_bytes, and the crowd boundary runs
  /// one bounded pair partition at a time, so the pair list, the pair graph
  /// and the vote table are never resident in full. Output is
  /// byte-identical to kMaterialized at any thread count, block size,
  /// budget and partition capacity.
  kStreaming,
};

struct WorkflowConfig {
  // ---- Machine pass. ----
  similarity::SetMeasure measure = similarity::SetMeasure::kJaccard;
  double likelihood_threshold = 0.3;
  /// Worker threads (0 = exec::HardwareConcurrency(), which honors
  /// CROWDER_THREADS; 1 = serial). Results are identical at any value — a
  /// contract pinned by the golden workflow test.
  ///
  /// What parallelizes: the machine pass's prefix-filter join and the crowd
  /// simulation (per-HIT seed derivation, see crowd/backend.h). HIT
  /// generation is inherently sequential and ignores this knob.
  uint32_t num_threads = 1;

  // ---- Execution. ----
  ExecutionMode execution_mode = ExecutionMode::kMaterialized;
  /// kStreaming only: resident bytes each spillable structure (candidate
  /// stream, component buckets, vote table) may hold before spilling blocks
  /// to disk (0 = unbounded, never spills).
  uint64_t memory_budget_bytes = 0;
  /// kStreaming only: probe records per emitted block — the granularity of
  /// streaming (and of spilling). 0 = the join's default. Any value yields
  /// identical output.
  uint32_t stream_block_records = 0;
  /// kStreaming only: pairs per crowd-boundary partition (0 = derived from
  /// memory_budget_bytes, or a single partition when that is 0 too). For
  /// pair-based HITs the capacity is rounded down to a multiple of
  /// pairs_per_hit; for cluster-based HITs partitions hold whole connected
  /// components, so one oversized component can exceed the capacity. Any
  /// value yields identical output (the partitioned golden dimension pins
  /// it).
  uint64_t crowd_partition_pairs = 0;

  // ---- Sharded machine pass (src/shard/; docs/ARCHITECTURE.md). ----
  /// Number of worker shards the machine pass is split across. 0 or 1 runs
  /// the single-process pass (unchanged, golden-pinned bytes). >= 2 runs
  /// the sharded runtime — requires a positive likelihood_threshold (prefix
  /// filtering degenerates at 0) — whose merged candidate list is
  /// byte-identical to the single-process pass at any shard count.
  uint32_t num_shards = 0;
  /// Path to the crowder_shardd worker binary. Empty runs every shard
  /// worker in-process (same frames, same bytes, no subprocesses — the
  /// transport the tests and TSan use).
  std::string shard_worker_path;

  // ---- Question selection (core/question_policy.h). ----
  /// Which pairs reach the crowd, and in what order. kFixedOrder is the
  /// bitwise-pinned default; kInferenceOrdered skips closure-implied pairs
  /// and asks the most informative ones first.
  QuestionPolicyKind question_policy = QuestionPolicyKind::kFixedOrder;
  /// kInferenceOrdered only: pairs asked per selection sub-round — the
  /// granularity at which the closure gets to veto questions (smaller =
  /// more inference opportunities, more rounds). 0 = auto:
  /// max(2 * pairs_per_hit, |P| / 64), so a run stays within ~64 sub-rounds
  /// per context at any scale. Rounded up to a multiple of pairs_per_hit
  /// for pair-based HITs (whole HITs per sub-round).
  uint64_t selection_batch_pairs = 0;

  // ---- HIT generation. ----
  HitType hit_type = HitType::kClusterBased;
  /// Cluster-size threshold k (cluster-based HITs).
  uint32_t cluster_size = 10;
  /// Pairs per HIT (pair-based HITs). Cluster-based HITs always come from
  /// the two-tiered generator, whose decomposition is component-local and
  /// therefore partitionable; the paper's other generators are baselines
  /// (hitgen::MakeClusterGenerator, bench_fig10/11).
  uint32_t pairs_per_hit = 10;

  // ---- Crowd & aggregation. ----
  crowd::CrowdModel crowd;
  AggregationMethod aggregation = AggregationMethod::kDawidSkene;

  // ---- Crowd defenses (crowd/worker_filter.h; docs/ARCHITECTURE.md). ----
  /// Installs the built-in crowd::ApprovalRateWorkerFilter: the driver
  /// reviews worker statistics between rounds and bans offenders, whose
  /// votes are excluded when decisions are derived at aggregation
  /// (retroactively — the revision path), and re-posts pairs the bans leave
  /// under-replicated in up to two repair rounds per round. Off by default;
  /// a filter with other thresholds can be installed via
  /// WorkflowDriver::SetWorkerFilter instead.
  bool filter_workers = false;

  /// Wraps the simulated crowd in an AsyncCrowdBackend
  /// (crowd/async_backend.h): votes arrive out of order, in partial
  /// batches, under the arrival-time model. Only affects
  /// Run(dataset) — when you bring your own backend, wrap it yourself.
  /// The vote *set* is unchanged; delivery order is not, so async runs are
  /// deterministic but not byte-identical to synchronous ones.
  bool async_crowd = false;

  uint64_t seed = 42;
};

/// \brief Largest cluster_size / pairs_per_hit a configuration may ask for.
/// HIT generation allocates per-size vectors of that length, so an absurd
/// value must be rejected, not allocated; the paper's HITs hold at most 20.
inline constexpr uint32_t kMaxHitSize = 1000;

/// \brief Validates a configuration: threshold in [0,1], cluster size in
/// [2, kMaxHitSize], pairs per HIT in [1, kMaxHitSize], sane crowd-model
/// fractions, pool large enough for the replication factor, and a positive
/// threshold for the sharded pass. Run() and PlanForBudget() call this
/// before any work.
Status ValidateWorkflowConfig(const WorkflowConfig& config);

/// \brief What the driver observed about one crowd round (one HIT batch):
/// how much arrived and how well the raters agreed. Computed from the votes
/// alone — no ground truth — so it is available to a live deployment too.
struct CrowdRoundStats {
  uint32_t first_hit = 0;
  uint32_t num_hits = 0;
  uint64_t num_votes = 0;
  /// Fleiss' kappa over the round's per-pair votes
  /// (aggregate/agreement.h). Near 1 for an honest crowd on easy pairs;
  /// collapses toward (or below) 0 as answer-blind workers dilute it.
  double fleiss_kappa = 0.0;
  /// Workers newly banned by the filter after this round.
  uint32_t workers_banned = 0;
  /// Pairs the answer closure resolved without crowdsourcing while this
  /// round was being selected (kInferenceOrdered only — the per-round
  /// savings; always 0 under kFixedOrder).
  uint64_t pairs_inferred = 0;
};

struct WorkflowResult {
  /// |P|: pairs surviving the machine pass (the set sent to the crowd). The
  /// result never carries P itself; HybridWorkflow::MachinePass returns it.
  uint64_t num_candidate_pairs = 0;
  /// Recall of the machine pass: matches in P / matches in the dataset.
  double machine_recall = 0.0;
  /// Final output: pairs sorted by decreasing crowd-derived match score.
  std::vector<eval::RankedPair> ranked;
  /// Precision-recall curve of `ranked` against the dataset's ground truth.
  std::vector<eval::PrPoint> pr_curve;
  /// Crowd statistics: #HITs, assignment durations, total latency, cost.
  /// `crowd_stats.votes` stays empty: votes live in the run's disk-backed
  /// vote table, not in the result.
  crowd::CrowdRunResult crowd_stats;
  /// Per-round agreement and filtering observations, in round order.
  std::vector<CrowdRoundStats> crowd_rounds;
  /// Workers banned by the admission filter (ascending id; empty without a
  /// filter). Their votes were excluded from the aggregated decisions but
  /// their assignments remain in crowd_stats for auditing.
  std::vector<uint32_t> filtered_workers;
  /// Candidate pairs actually posted to the crowd. Under kFixedOrder this
  /// is every candidate pair (when crowd rounds ran at all); under
  /// kInferenceOrdered, the pairs the closure could not resolve.
  uint64_t crowd_pairs_asked = 0;
  /// Pairs whose verdict was inferred from the answer closure instead of
  /// crowdsourced (kInferenceOrdered only; 0 under kFixedOrder). Inferred
  /// verdicts enter `ranked` with probability 1.0 / 0.0.
  uint64_t pairs_inferred = 0;
  uint64_t total_matches = 0;
  /// Per-stage timings and stream/spill counters. Informational — never part
  /// of the byte-identity contract across budgets and partition capacities.
  PipelineStats pipeline_stats;
  /// Sharded machine pass only (num_shards >= 2): per-shard wall/CPU/RSS
  /// and coordinator timings. Informational, like pipeline_stats.
  shard::ShardRunStats shard_stats;
};

/// \brief End-to-end CrowdER pipeline over a Dataset.
class HybridWorkflow {
 public:
  explicit HybridWorkflow(WorkflowConfig config) : config_(std::move(config)) {}

  /// Runs the full pipeline with the built-in simulated crowd
  /// (crowd::SimulatedCrowdBackend under config.crowd / config.seed).
  /// Deterministic given (config, dataset).
  Result<WorkflowResult> Run(const data::Dataset& dataset) const;

  /// Runs the full pipeline against `backend` — the driver loop spelled out
  /// in core/driver.h: post each pending HIT batch, poll its votes, submit,
  /// step; then install the backend's crowd statistics. The backend must be
  /// fresh (nothing posted yet) and is consumed by the run (Finish is
  /// called on it).
  Result<WorkflowResult> Run(const data::Dataset& dataset, crowd::CrowdBackend* backend) const;

  const WorkflowConfig& config() const { return config_; }

  /// The machine pass alone, materialized: tokenize every record (all
  /// attributes), find candidates with `strategy`, and keep pairs at or
  /// above `threshold`. Exposed for callers that need P itself, such as the
  /// benches that sweep thresholds or compare strategies without
  /// crowdsourcing (Table 2, Figures 10-11) and the budget planner.
  /// `num_threads` follows the WorkflowConfig convention (0 = auto, 1 =
  /// serial) and only affects kAllPairsJoin; the returned pairs are
  /// identical at any value.
  static Result<std::vector<similarity::ScoredPair>> MachinePass(
      const data::Dataset& dataset, similarity::SetMeasure measure, double threshold,
      CandidateStrategy strategy = CandidateStrategy::kAllPairsJoin,
      uint32_t num_threads = 1);

  /// What a streaming machine pass reports without materializing its pairs.
  struct MachineStreamStats {
    uint64_t num_pairs = 0;
    /// True matches among the emitted pairs (machine recall numerator).
    uint64_t candidate_matches = 0;
    uint64_t spilled_bytes = 0;
    size_t num_blocks = 0;
  };

  /// The streaming machine pass alone (kAllPairsJoin only): emits candidate
  /// blocks of `block_records` probe records (0 = the join's default) into
  /// `stream` (whose memory budget the caller chose) and never holds more
  /// than one block of pairs outside it — except at threshold <= 0, where
  /// every pair qualifies and the O(n^2) output is first materialized by the
  /// exhaustive join (then still fed to the stream in bounded blocks). The
  /// stream's sorted scan is byte-identical to MachinePass' return value.
  /// The workflow's single-process machine pass; also the backbone of
  /// `crowder_cli run --machine-only --streaming` and bench_stream.
  static Result<MachineStreamStats> MachinePassStream(const data::Dataset& dataset,
                                                      similarity::SetMeasure measure,
                                                      double threshold, uint32_t num_threads,
                                                      PairStream* stream,
                                                      uint32_t block_records = 0);

  /// The sharded machine pass (kAllPairsJoin only, threshold > 0): plans
  /// the shard bands, runs `exec.num_shards` workers — crowder_shardd
  /// subprocesses when `exec.worker_path` is set, in-process otherwise —
  /// and feeds their sorted, disjoint owned pair blocks into `stream`,
  /// whose k-way-merged sorted scan is byte-identical to MachinePass /
  /// MachinePassStream over the same dataset (the ownership lemma and
  /// merge-identity argument live in shard/plan.h, shard/coordinator.h and
  /// docs/ARCHITECTURE.md). `shard_run_stats` (optional) receives the
  /// per-shard wall/CPU/RSS and coordinator timings.
  static Result<MachineStreamStats> MachinePassSharded(const data::Dataset& dataset,
                                                       similarity::SetMeasure measure,
                                                       double threshold,
                                                       const shard::ShardExecOptions& exec,
                                                       PairStream* stream,
                                                       shard::ShardRunStats* shard_run_stats);

 private:
  WorkflowConfig config_;
};

}  // namespace core
}  // namespace crowder

#endif  // CROWDER_CORE_WORKFLOW_H_

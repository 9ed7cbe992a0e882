/// \file
/// \brief `WorkflowDriver`: the CrowdER workflow as a resumable step
/// machine, with the crowd on the outside.
///
/// `HybridWorkflow::Run` answers "run everything, simulate the crowd, give
/// me the result". The driver inverts that control flow for embedders who
/// *are* the crowd — replay harnesses, adaptive question selectors, live
/// platform adapters: it runs the machine pass and HIT generation, then
/// surfaces the crowd work one **round** (HIT batch) at a time and waits
/// for votes before moving on:
///
/// \code
///   core::WorkflowDriver driver(config);
///   CROWDER_RETURN_NOT_OK(driver.Start(dataset));
///   while (!driver.done()) {
///     const crowd::HitBatch& batch = driver.PendingHits();
///     crowd::VoteBatch votes = AnswerSomehow(batch);   // your crowd here
///     CROWDER_RETURN_NOT_OK(driver.SubmitVotes(std::move(votes)));
///     CROWDER_RETURN_NOT_OK(driver.Step());
///   }
///   CROWDER_ASSIGN_OR_RETURN(core::WorkflowResult result, driver.TakeResult());
/// \endcode
///
/// `HybridWorkflow::Run` itself is exactly this loop over a
/// `crowd::CrowdBackend` (core/workflow.cc), so every workflow test
/// exercises the driver path.
///
/// Rounds come from one loop over *contexts*: a context is one crowd
/// partition (pair-based HITs) or one range of cluster HITs posted together
/// (cluster-based) — a single context holding every pair when the run is
/// unbounded. GenerateHits lays the contexts out (core/stages.h): the
/// partition capacity, and for cluster HITs the ranges and each range's
/// pair store, which holds exactly the candidate pairs some HIT of the
/// range asks. Under the default kFixedOrder each context is posted
/// whole as one round; the results are bitwise the same at any partitioning
/// (golden-pinned). A context retires — and counts as one of
/// PipelineStats::crowd_partitions — once nothing in it is left to ask.
///
/// Error discipline (the `failed_` latch, as in crowd::SimulatedCrowdBackend):
/// submitting corrupt vote *data* — a vote on a pair outside the round's
/// context, an assignment for a HIT outside the round — rejects the batch
/// without filing anything AND poisons the driver, so a partial or
/// untrustworthy crowd transport can never leak into a result. Protocol
/// misuse (Step before votes, a second SubmitVotes for the same round,
/// SubmitVotes after done(), TakeResult before done(), a vote on a pair the
/// answer closure already resolved by inference) returns a clean error and
/// leaves the driver usable.
///
/// Question selection (config.question_policy, core/question_policy.h):
/// under kInferenceOrdered each context is served as adaptive
/// **sub-rounds** instead. Between sub-rounds the driver folds the answered
/// pairs' surviving-vote *consensus* (unanimous verdicts only — see
/// SurvivingConsensus in driver.cc) into a graph::AnswerClosure, records
/// every closure-implied pair as inferred (never posting it), and asks the
/// gain-ranked top of the rest. Selection therefore reorders only within
/// the resident partition — the partition sequence itself is the stream's
/// order.
/// Composition with the crowd defenses: repair rounds re-post
/// under-replicated pairs of the current round's context as usual, and
/// when a ban changes the surviving consensus the closure is rebuilt from
/// the asked-pair log and every inferred verdict is re-validated — a
/// verdict the rebuilt closure no longer implies is retracted and its pair
/// conservatively re-asked (the retraction contract; see
/// docs/ARCHITECTURE.md). The asked-pair log keeps one entry per asked
/// pair (with its votes) resident for the whole run — the adaptive mode's
/// documented O(pairs asked) memory cost on top of the memory budget.
#ifndef CROWDER_CORE_DRIVER_H_
#define CROWDER_CORE_DRIVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "core/question_policy.h"
#include "core/stages.h"
#include "core/workflow.h"
#include "crowd/backend.h"
#include "crowd/worker_filter.h"
#include "graph/answer_closure.h"

namespace crowder {
namespace core {

/// \brief Step/poll workflow execution: Start → (PendingHits → SubmitVotes →
/// Step)* → TakeResult. See the file comment for the loop shape.
///
/// Not thread-safe; drive it from one thread. The dataset passed to Start
/// must outlive the driver (the driver and its WorkflowState keep a pointer).
class WorkflowDriver {
 public:
  /// \brief Holds the configuration; no work happens until Start. Under
  /// ExecutionMode::kMaterialized the budget, block and partition knobs are
  /// cleared here (the unbounded run).
  explicit WorkflowDriver(WorkflowConfig config);
  /// \brief Drops the run's state (temp spill files included).
  ~WorkflowDriver();

  WorkflowDriver(const WorkflowDriver&) = delete;             ///< not copyable
  WorkflowDriver& operator=(const WorkflowDriver&) = delete;  ///< not copyable

  /// \brief Validates the config, runs the machine pass and HIT generation,
  /// and prepares the first crowd round. After a
  /// successful Start either done() is true (nothing for the crowd to do)
  /// or PendingHits() carries the first batch.
  Status Start(const data::Dataset& dataset);

  /// \brief True once the ranked result is ready (all rounds answered and
  /// aggregated — or there was never crowd work to do).
  bool done() const { return phase_ == Phase::kDone || phase_ == Phase::kTaken; }

  /// \brief The HIT batch awaiting crowd answers. Valid — and stable — from
  /// the Start/Step that prepared it until the Step that retires it; an
  /// empty batch when nothing is pending.
  const crowd::HitBatch& PendingHits() const { return pending_; }

  /// \brief Files the crowd's answers for the pending batch: every vote
  /// must name a pair of the batch's context and every assignment a HIT of
  /// the batch (validated before anything is filed; a violation poisons the
  /// driver — see the latch discipline in the file comment). Votes are
  /// filed in the given order; per-pair cast order is what aggregation
  /// sees.
  ///
  /// Asynchronous transports may deliver a round in pieces: a batch with
  /// `complete = false` is filed but leaves the round open for further
  /// submissions; the batch with `complete = true` (the synchronous default)
  /// closes it. Across all of a round's deliveries each HIT may appear at
  /// most once — a re-delivery is corrupt data and latches the failure.
  /// After the completing batch, further submissions for the round are
  /// protocol errors ("duplicate vote submission"), and submissions naming
  /// earlier rounds' HITs fail the batch-range check — late votes are filed
  /// exactly once or rejected by name, never silently double-counted.
  Status SubmitVotes(crowd::VoteBatch votes);

  /// \brief Installs an admission filter (crowd/worker_filter.h), consulted
  /// after every answered round with the lifetime per-worker statistics; the
  /// ids it returns are banned — cumulatively and *retroactively*: at
  /// aggregation every vote a banned worker ever cast is excluded and the
  /// affected pairs' decisions are re-derived from the surviving votes (the
  /// revision path). Not owned; must outlive the driver. Call before the
  /// first Step; overrides the built-in filter `config.filter_workers`
  /// would install.
  void SetWorkerFilter(crowd::WorkerFilter* filter) { filter_ = filter; }

  /// \brief Retires the answered round: prepares the next round, or — after
  /// the last one — runs aggregation, after which done() is true. Requires
  /// SubmitVotes first.
  Status Step();

  /// \brief Installs the crowd's run statistics (cost, latency, audit
  /// trail — typically `CrowdBackend::Finish()`'s result) into the pending
  /// WorkflowResult. Optional: without it the result carries the driver's
  /// own fallback
  /// counts (HITs, assignments, durations) with zero cost/latency. Only
  /// legal when done() and before TakeResult.
  Status SubmitCrowdStats(crowd::CrowdRunResult stats);

  /// \brief Terminal: moves the finished WorkflowResult out. Errors before
  /// done() — e.g. with a submitted-but-not-stepped round ("partial batch")
  /// — and on a poisoned driver.
  Result<WorkflowResult> TakeResult();

  /// \brief The configuration the driver runs (kMaterialized's knobs
  /// cleared, see the constructor).
  const WorkflowConfig& config() const { return config_; }

 private:
  enum class Phase { kIdle, kAwaitingVotes, kDone, kTaken };

  /// Prepares the next round into pending_ or, when rounds are exhausted,
  /// finalizes (vote store seal, crowd timing, aggregation).
  Status Advance();
  /// Closes the books on the answered round (Step, before Advance): records
  /// CrowdRoundStats (votes, Fleiss' kappa), folds the round's votes into
  /// the lifetime worker statistics, and consults the filter.
  void FinishRound();
  /// The fault-tolerance half of revision: when bans leave pairs of the
  /// answered context with fewer surviving votes than
  /// crowd.assignments_per_hit, stages a repair round re-posting those
  /// pairs as fresh pair-based HITs over the same context, so revision does
  /// not starve pairs of evidence. Replacement votes come from freshly
  /// drawn workers, who are reviewed (and banned) like any others. Returns
  /// true when a repair round is now pending.
  Result<bool> PrepareRepairRound();
  Status Finalize();

  // ---- The round loop. ----
  bool adaptive() const {
    return config_.question_policy == QuestionPolicyKind::kInferenceOrdered;
  }
  /// The round loop: drains the re-ask queue, loads contexts from the
  /// context source, sweeps the closure over them (adaptive only), retires
  /// each exhausted one, and posts a round from the current one until a
  /// round is pending or every context is retired.
  Status PrepareRound();
  /// Pulls the next context (pair partition / cluster-HIT range) into
  /// base_unresolved_; leaves base_active_ false when the source is
  /// exhausted.
  Status LoadNextBaseContext();
  /// Drops every pending question the closure (or an earlier context)
  /// already resolves, recording fresh verdicts as inferred.
  void SweepClosure();
  /// Posts one round from base_unresolved_: the whole context under
  /// kFixedOrder, the gain-ranked top under kInferenceOrdered.
  Status PostSelectionRound();
  /// Posts the first `take` of `questions` (removing them) as a round of
  /// pair HITs in their current order — partitions, selections and re-asks.
  Status PostPairRound(std::vector<PendingQuestion>* questions, size_t take);
  /// Packs `edges` into pair HITs (round_pair_hits_) and makes them the
  /// pending batch's HITs, numbered from next_hit_.
  Status PackPairHits(const std::vector<graph::Edge>& edges);
  /// Indexes round_pairs_ for vote lookup and makes it the pending batch's
  /// context.
  void PublishContext();
  /// Pairs per selection sub-round (config.selection_batch_pairs; 0=auto).
  uint64_t ResolveSelectionBatch() const;
  /// After a sub-round (and its repairs) is answered: files its pairs into
  /// the asked log and folds their surviving-vote consensus (unanimous
  /// verdicts only) into the closure.
  void FoldAnsweredRound();
  /// When the ban set grew: rebuilds the closure from the asked log's
  /// surviving votes and retracts (queues for re-ask) every inferred
  /// verdict the rebuilt closure no longer implies.
  void MaybeRebuildClosure();

  WorkflowConfig config_;
  std::unique_ptr<WorkflowState> state_;
  Phase phase_ = Phase::kIdle;
  /// Corrupt vote data was rejected; every later call fails cleanly.
  bool failed_ = false;
  bool votes_submitted_ = false;

  // ---- The pending round. ----
  crowd::HitBatch pending_;
  /// Round-owned backing storage for pending_.
  std::vector<similarity::ScoredPair> round_pairs_;
  std::vector<hitgen::PairBasedHit> round_pair_hits_;
  std::vector<hitgen::ClusterBasedHit> round_cluster_hits_;
  /// PairKey(a, b) -> position in the pending context.
  std::unordered_map<uint64_t, size_t> round_pair_index_;
  /// Position in the pending context -> global pair index (vote filing key).
  std::vector<uint64_t> round_global_index_;
  /// Global HIT counter across rounds (== first_hit of the next round).
  uint32_t next_hit_ = 0;
  /// HITs of the pending round already filed — the duplicate-delivery check
  /// across partial submissions.
  std::unordered_set<uint32_t> round_hits_filed_;
  /// The answered context's votes (context position, vote) in filing order —
  /// the raw material of FinishRound's kappa and approval statistics and of
  /// PrepareRepairRound's surviving-vote counts. Accumulates across a
  /// round's repair rounds (same context); round_votes_reviewed_ marks the
  /// prefix FinishRound has already folded into the statistics.
  std::vector<std::pair<size_t, aggregate::Vote>> round_votes_;
  size_t round_votes_reviewed_ = 0;
  /// Repair rounds a context may stage.
  static constexpr uint32_t kRepairRounds = 2;
  /// Repair rounds staged for the current context so far.
  uint32_t repair_rounds_used_ = 0;

  // ---- Crowd defenses (crowd/worker_filter.h). ----
  crowd::WorkerFilter* filter_ = nullptr;  ///< not owned
  /// The built-in filter when config_.filter_workers asked for one.
  std::unique_ptr<crowd::WorkerFilter> owned_filter_;
  /// Lifetime per-worker statistics; an ordered map so Review sees
  /// ascending worker ids (the determinism contract).
  std::map<uint32_t, crowd::WorkerStats> worker_stats_;
  /// Every worker banned so far (cumulative across rounds).
  std::unordered_set<uint32_t> banned_workers_;

  // ---- Where the next context starts (the layout is GenerateHits'). ----
  std::optional<PairStream::SortedCursor> cursor_;
  uint64_t next_pair_base_ = 0;
  size_t next_range_begin_ = 0;

  // ---- Adaptive question selection (kInferenceOrdered only; empty and
  //      untouched under kFixedOrder). ----
  /// Positive + negative transitive closure over the answered pairs.
  std::unique_ptr<graph::AnswerClosure> closure_;
  /// One asked pair's resident record: identity and every vote it ever
  /// received (across sub-rounds, repairs, and re-asks) — the rebuild
  /// source of the retraction contract.
  struct AskedPair {
    similarity::ScoredPair pair;
    std::vector<aggregate::Vote> votes;
  };
  /// Global pair index -> asked record. Ordered for deterministic rebuild.
  std::map<uint64_t, AskedPair> asked_;
  /// One closure-resolved pair: identity and the inferred verdict.
  struct InferredPair {
    similarity::ScoredPair pair;
    bool verdict = false;
  };
  /// Global pair index -> inferred verdict (ordered; copied into
  /// WorkflowState::inferred_verdicts at Finalize).
  std::map<uint64_t, InferredPair> inferred_;
  /// PairKey -> global index of the inferred pairs — the SubmitVotes check
  /// that a vote on a closure-resolved pair is a clean protocol error.
  std::unordered_map<uint64_t, uint64_t> inferred_key_;
  /// Pairs inferred since the last FinishRound (the per-round savings stat).
  uint64_t inferred_new_ = 0;
  /// Retracted pairs awaiting their conservative re-ask, in retraction
  /// order; reask_pending_ mirrors it for membership checks.
  std::vector<PendingQuestion> reask_queue_;
  std::unordered_set<uint64_t> reask_pending_;
  /// banned_workers_ size at the last closure (re)build — the trigger for
  /// MaybeRebuildClosure.
  size_t banned_seen_ = 0;

  // ---- The resident context being served as rounds. ----
  bool base_active_ = false;
  /// Questions of the context not yet posted or inferred.
  std::vector<PendingQuestion> base_unresolved_;
  /// Cluster-based only: the context's HITs and which were already posted
  /// (adaptively, a HIT whose pairs are all resolved is skipped outright).
  std::vector<hitgen::ClusterBasedHit> base_cluster_hits_;
  std::vector<bool> base_hit_posted_;

  /// Wall clock of the crowd phase (rounds start → aggregation), reported
  /// as the "crowd" stage timing.
  WallTimer crowd_timer_;
  /// Wall clock of the pending round (prepare → Step), recorded into
  /// PipelineStats::round_wall_micros — the per-round spread the aggregate
  /// "crowd" timing flattens.
  WallTimer round_timer_;
};

}  // namespace core
}  // namespace crowder

#endif  // CROWDER_CORE_DRIVER_H_

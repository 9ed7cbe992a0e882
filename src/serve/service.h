// EntityResolutionService: CrowdER as a resident process. Records arrive one
// at a time; each insert probes the incremental prefix index for candidate
// pairs, auto-accepts the near-certain ones, and queues the rest for the
// simulated crowd, whose verdicts are applied to a growing transitive-
// closure resolver as they arrive — possibly from a background thread, while
// queries read immutable epoch snapshots without taking any lock.
//
//   Insert ──► tokenize ──► IncrementalIndex ──► auto-match │ crowd queue
//                                                     │           │ flush
//                                                     ▼           ▼
//                                 core::StreamingResolver ◄── crowd rounds
//                                                     │        (exec pool,
//                                                     ▼    AsyncCrowdBackend
//                                          SnapshotStore ──► Query  over
//                                                           JudgePair)
//
// Determinism contract (pinned by serve_test, exercised at scale by
// crowder_bench_serve --compare-batch): the FINAL partition is a pure
// function of (dataset order, config) — bitwise equal to BatchResolve's,
// which runs the classic batch pipeline (one AllPairsJoin, synchronous
// per-pair crowd) over the same data. Three properties compose into that
// guarantee: the incremental index emits exactly the batch join's candidate
// set (incremental_index.h), per-pair verdict seeding makes HIT packing and
// delivery order invisible (pair_crowd.h), and transitive closure with the
// shared canonicalization is insensitive to the order matches are applied
// (core::StreamingResolver, core/resolution.h). Mid-run snapshots are NOT deterministic across runs
// (they depend on thread interleaving) — but each one is internally
// consistent: its clusters equal the closure over exactly the first
// `applied_matches` entries of the append-only match log.
#ifndef CROWDER_SERVE_SERVICE_H_
#define CROWDER_SERVE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/resolution.h"
#include "crowd/crowd_model.h"
#include "crowd/platform.h"
#include "data/dataset.h"
#include "exec/thread_pool.h"
#include "serve/incremental_index.h"
#include "serve/pair_crowd.h"
#include "serve/snapshot.h"
#include "text/vocabulary.h"

namespace crowder {
namespace serve {

/// \brief Everything that parameterizes one service instance. The same
/// struct drives BatchResolve so the two paths cannot diverge by config.
struct ServiceConfig {
  /// Candidate (Jaccard) threshold of the machine pass (must be in (0, 1]).
  double threshold = 0.3;
  /// Candidates at or above this likelihood are accepted without asking the
  /// crowd (1.01 = ask the crowd about everything, CrowdER's default deal).
  double auto_match_threshold = 1.01;
  /// A crowd-judged pair is a match when its yes-vote fraction reaches this.
  double match_threshold = 0.5;
  /// Only cross-source pairs are candidates (the two-source Product rule).
  bool cross_source_only = false;
  /// Pairs per posted HIT (clamped to >= 1).
  uint32_t pairs_per_hit = 10;
  /// Queued crowd pairs that trigger a round flush.
  size_t crowd_flush_pairs = 256;
  /// Inserts between periodic snapshot publishes (verdict applications
  /// always publish; clamped to >= 1).
  uint64_t publish_interval = 64;
  /// Route rounds through crowd::AsyncCrowdBackend: completion-order partial
  /// deliveries of at most `hits_per_poll` HITs each.
  bool async_delivery = true;
  /// Maximum HITs per async partial delivery (ignored when synchronous).
  uint32_t hits_per_poll = 4;
  /// Run crowd rounds on a background exec::ThreadPool thread instead of
  /// inline in Insert. The final partition is identical either way.
  bool background = true;
  /// Seed for the worker pool and every per-pair verdict stream.
  uint64_t seed = 42;
  /// The simulated crowd's behavioural model.
  crowd::CrowdModel model;
};

/// \brief What one Insert did.
struct InsertOutcome {
  uint32_t record_id = 0;        ///< id assigned to the inserted record
  uint32_t new_candidates = 0;   ///< pairs the index surfaced
  uint32_t auto_matched = 0;     ///< applied immediately (score >= auto)
  uint32_t queued_for_crowd = 0; ///< handed to the crowd queue
};

/// \brief A point-in-time answer about one record, read from a snapshot.
struct QueryResult {
  uint64_t epoch = 0;      ///< epoch of the snapshot answered from
  uint32_t record_id = 0;  ///< the queried record
  uint32_t cluster_id = 0; ///< the record's cluster at that epoch: its smallest member
  /// Members of the record's cluster at the snapshot's epoch, ascending.
  std::vector<uint32_t> members;
  /// Crowd-bound pairs touching the record, still undecided at the epoch.
  std::vector<PendingPair> pending;
};

/// \brief Service-side counters (monotone; read under the state lock).
struct ServiceStats {
  uint32_t num_records = 0;      ///< records ingested
  uint64_t candidate_pairs = 0;  ///< pairs the index surfaced, total
  uint64_t auto_matches = 0;     ///< candidates accepted without the crowd
  uint64_t crowd_pairs = 0;      ///< queued for the crowd, total
  uint64_t crowd_decided = 0;    ///< verdicts applied
  uint64_t crowd_matches = 0;    ///< verdicts that were matches
  uint64_t applied_matches = 0;  ///< match edges applied (auto + crowd)
  uint64_t rounds = 0;           ///< crowd rounds flushed
  uint64_t hits_posted = 0;      ///< HITs posted across all rounds
  uint64_t epochs_published = 0; ///< snapshots published
  uint64_t index_rebuilds = 0;   ///< IncrementalIndex rare-first re-ranks
};

/// \brief Terminal output of a run (either path).
struct ServiceReport {
  core::EntityClusters clusters;  ///< the final partition
  ServiceStats stats;             ///< service-side counters
  /// Crowd-side accounting, identical between the incremental and batch
  /// paths: both file one assignment per pair-vote (its `votes` table is
  /// unused, as verdicts are applied as they arrive).
  crowd::CrowdRunResult crowd;
};

/// \brief The resident service. Insert must be called from one thread at a
/// time (the ingest thread); Query and CurrentSnapshot are safe from any
/// number of threads concurrently with ingest and the crowd loop.
class EntityResolutionService {
 public:
  /// \brief Validates the config and builds an empty service (epoch 0).
  static Result<std::unique_ptr<EntityResolutionService>> Create(const ServiceConfig& config);

  /// \brief Drains outstanding background rounds before tearing down.
  ~EntityResolutionService();

  EntityResolutionService(const EntityResolutionService&) = delete;             ///< not copyable
  EntityResolutionService& operator=(const EntityResolutionService&) = delete;  ///< not copyable

  /// \brief Ingests one record: `text` is the record's concatenated
  /// attribute text, `source` its source label, `truth_entity` its
  /// ground-truth entity (consumed only by the simulated crowd). The text
  /// becomes a token set through the call that builds each record of the
  /// batch join input (text::Vocabulary::InternDocument, which
  /// core::internal::BuildJoinInput makes per record), on a vocabulary
  /// grown in insertion order, so dataset order gives both paths the same
  /// token ids.
  Result<InsertOutcome> Insert(const std::string& text, int source, uint32_t truth_entity);

  /// \brief Convenience: Insert record `r` of `dataset`.
  Result<InsertOutcome> InsertDatasetRecord(const data::Dataset& dataset, uint32_t r);

  /// \brief Answers from the current snapshot — lock-free, never blocks or
  /// is blocked by ingest. Fails with NotFound until a snapshot containing
  /// the record has been published.
  Result<QueryResult> Query(uint32_t record_id) const;

  /// \brief The current snapshot (wait-free; never null).
  std::shared_ptr<const Snapshot> CurrentSnapshot() const;

  /// \brief Posts any queued crowd pairs (even below the flush watermark),
  /// waits until every outstanding verdict has been applied, and publishes.
  Status Flush();

  /// \brief Terminal: Flush + final snapshot + assembled report. The
  /// service accepts no further inserts afterwards.
  Result<ServiceReport> Finish();

  /// \brief Counters (consistent view, taken under the state lock).
  ServiceStats Stats() const;

  /// \brief The first `count` entries of the append-only applied-match log
  /// — the replay handle of the snapshot-consistency contract. `count` must
  /// not exceed the applied total at some observed snapshot (entries are
  /// immutable once written).
  std::vector<std::pair<uint32_t, uint32_t>> AppliedMatchPrefix(uint64_t count) const;

 private:
  struct Round;  // one flushed crowd round (pairs + HITs + their truth)

  EntityResolutionService(const ServiceConfig& config, IncrementalIndex index,
                          crowd::CrowdPlatform platform);

  /// Moves the queued pairs into a Round and runs it (inline or on the
  /// pool). Ingest thread only; caller must NOT hold mu_.
  void FlushQueue();

  /// Applies one match edge to the resolver + log (requires mu_).
  void ApplyMatchLocked(uint32_t a, uint32_t b);

  /// Executes one round end to end: post, poll (partial deliveries), apply
  /// verdicts under mu_, publish per delivery.
  void RunRound(std::shared_ptr<Round> round);

  /// Builds + publishes the next epoch (requires mu_).
  void PublishLocked();

  ServiceConfig config_;
  /// The crowd every round is judged against (read-only after Create).
  const crowd::CrowdPlatform platform_;

  // ---- Ingest-thread-only state (no lock needed). ----
  text::Vocabulary vocab_;
  IncrementalIndex index_;
  std::vector<uint32_t> entity_of_;  ///< ground truth, grown per insert
  std::vector<similarity::ScoredPair> queue_;  ///< awaiting a round flush
  uint64_t inserts_since_publish_ = 0;
  bool finished_ = false;

  // ---- Shared state, guarded by mu_. ----
  mutable std::mutex mu_;
  core::StreamingResolver resolver_;
  /// Append-only log of applied matches, in application order.
  std::vector<std::pair<uint32_t, uint32_t>> applied_;
  /// Crowd-bound pairs not yet decided, by PairKey.
  std::unordered_map<uint64_t, PendingPair> pending_;
  ServiceStats stats_;
  crowd::CrowdRunResult crowd_;  ///< every delivered assignment, filed once
  uint64_t next_epoch_ = 1;

  SnapshotStore store_;
  std::unique_ptr<exec::ThreadPool> pool_;  ///< 1 worker; null when inline
};

/// \brief The batch reference: the classic pipeline (one AllPairsJoin over
/// the full dataset, synchronous per-pair crowd via JudgePair, transitive
/// closure) under the same config. `config.cross_source_only` is ignored —
/// the dataset's own source labels decide, as they do for the service
/// callers that feed per-record sources from the same dataset.
Result<ServiceReport> BatchResolve(const data::Dataset& dataset, const ServiceConfig& config);

/// \brief Writes a partition as `record,cluster` CSV rows (with header) —
/// the artifact the smoke chain byte-compares across paths.
Status WriteClusterReport(const core::EntityClusters& clusters, const std::string& path);

}  // namespace serve
}  // namespace crowder

#endif  // CROWDER_SERVE_SERVICE_H_

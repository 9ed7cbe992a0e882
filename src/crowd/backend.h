/// \file
/// \brief The pluggable crowd boundary: `CrowdBackend`, the interface the
/// workflow talks to instead of a baked-in simulator.
///
/// CrowdER is a hybrid human-machine loop, but until this seam existed the
/// human half was hard-wired: `HybridWorkflow::Run` drove the built-in
/// simulator to completion and only then returned. `CrowdBackend` inverts
/// that — the workflow (via `core::WorkflowDriver`) *posts* HIT batches and
/// *polls* answers, and what sits behind the boundary is the caller's
/// choice:
///
///  * `SimulatedCrowdBackend` — the deterministic simulator, the one code
///    that answers a simulated HIT; bitwise-identical to the pre-interface
///    workflow, and able to tee every response into a `VoteLogWriter`
///    (crowd/vote_log.h) for later replay.
///  * `RecordedCrowdBackend` (crowd/vote_log.h) — replays a recorded vote
///    log, reproducing the ranked output byte for byte without simulating.
///  * `CallbackCrowdBackend` — a user-supplied function: the embedding hook
///    for tests, oracle crowds, and live platform adapters.
///
/// The protocol is deliberately small: `Post(HitBatch) -> Ticket`,
/// `Poll(Ticket) -> VoteBatch` (votes + assignment records), terminal
/// `Finish() -> CrowdRunResult`. Synchronous backends complete the work
/// inside Post/Poll; an asynchronous one answers a ticket over several
/// Polls, each marked `complete = false` until the last.
#ifndef CROWDER_CROWD_BACKEND_H_
#define CROWDER_CROWD_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "crowd/platform.h"
#include "exec/thread_pool.h"
#include "hitgen/hit.h"
#include "similarity/similarity_join.h"

namespace crowder {
/// \brief The crowd: worker pool simulation and the pluggable CrowdBackend
/// boundary with its vote-log record/replay.
namespace crowd {

class VoteLogWriter;  // crowd/vote_log.h

/// \brief One posted round of crowd work: a batch of HITs plus the candidate
/// pairs they reference (the round's pair context, with machine
/// likelihoods). Exactly one of `pair_hits` / `cluster_hits` is non-null.
///
/// The batch is a non-owning view: the pointed-at vectors belong to the
/// producer (core::WorkflowDriver keeps them alive until the round is
/// stepped past) and must outlive every Post/Poll call that uses the batch.
struct HitBatch {
  /// Global index of the first HIT in the batch; HIT *i* of the batch has
  /// global index `first_hit + i`.
  uint32_t first_hit = 0;
  /// The candidate pairs the batch's HITs may reference. Votes name pairs by
  /// their (a, b) record ids, which must appear in this list.
  const std::vector<similarity::ScoredPair>* pairs = nullptr;
  /// Pair-based HITs of the round (null for a cluster round).
  const std::vector<hitgen::PairBasedHit>* pair_hits = nullptr;
  /// Cluster-based HITs of the round (null for a pair round).
  const std::vector<hitgen::ClusterBasedHit>* cluster_hits = nullptr;

  /// \brief HITs in the batch.
  size_t num_hits() const {
    return (pair_hits != nullptr ? pair_hits->size() : 0) +
           (cluster_hits != nullptr ? cluster_hits->size() : 0);
  }
  /// \brief True when the batch carries no HITs.
  bool empty() const { return num_hits() == 0; }
};

/// \brief Canonical 64-bit key of an unordered record pair — min(a, b) in
/// the high word, max(a, b) in the low. The one normalization shared by
/// every component that indexes votes by record pair (the simulator's pair
/// index, the driver's round context, the simulator's per-pair hardness
/// draw); a single definition keeps the seam's key spaces identical.
inline uint64_t PairKey(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a < b ? a : b) << 32) | (a < b ? b : a);
}

/// \brief Derives the independent Rng a component uses for `salt` under a
/// platform seed. Distinct salts give statistically independent streams;
/// SimulatedCrowdBackend uses the global HIT index as the salt.
Rng DeriveRng(uint64_t seed, uint64_t salt);

/// \brief Deterministic per-pair hardness draw in [0,1): the same pair is
/// equally confusing for every worker and every run, which is what makes
/// replication imperfect insurance (as on the real platform). Shared with
/// the serving stack's per-pair verdicts (serve/pair_crowd.h), so both
/// draw the same hardness.
double PairHardness(uint32_t a, uint32_t b);

/// \brief Picks `count` distinct entries of `eligible` using `rng` (sample
/// without replacement over positions). Shared by the simulator and the
/// serving stack so both assign the same workers to the same draw.
std::vector<uint32_t> PickWorkersFrom(const std::vector<uint32_t>& eligible, uint32_t count,
                                      Rng* rng);

/// \brief One worker's verdict on one record pair, named by record ids (not
/// positional indices) so answers survive any transport — a live platform, a
/// JSONL log, a test callback.
struct PairVote {
  uint32_t a = 0;  ///< smaller record id of the pair
  uint32_t b = 0;  ///< larger record id of the pair
  /// The verdict (worker id + yes/no).
  aggregate::Vote vote;
};

/// \brief Everything the crowd returned for one HIT: its votes in cast
/// order. Assignment records travel separately in VoteBatch::assignments
/// (they already carry their HIT index).
struct HitVotes {
  uint32_t hit = 0;  ///< global HIT index
  /// Votes cast while answering this HIT, in cast order. Per-pair vote
  /// order is what aggregation observes, so producers must preserve it.
  std::vector<PairVote> votes;
};

/// \brief The crowd's answer to one posted HitBatch — or, for an
/// asynchronous backend, one *delivery* of it.
struct VoteBatch {
  /// Per-HIT responses. Synchronous producers emit them in global HIT
  /// order; the aggregate per-pair vote sequences (HIT order, then cast
  /// order within a HIT) are part of the byte-identity contract.
  /// Asynchronous deliveries may arrive in any order, but a HIT's votes are
  /// atomic: each HIT appears in exactly one HitVotes entry across all
  /// deliveries of a round (the driver rejects a second appearance).
  std::vector<HitVotes> hit_votes;
  /// Completed assignments of the batch, in publish order. An asynchronous
  /// delivery carries the assignments of the HITs it delivers.
  std::vector<AssignmentRecord> assignments;
  /// False when more deliveries for this ticket follow (poll again).
  /// Synchronous backends always return true; core::WorkflowDriver accepts
  /// any number of partial submissions before the completing one.
  bool complete = true;
};

/// \brief Handle for one posted HitBatch, echoed back to Poll.
using Ticket = uint64_t;

/// \brief The precondition every backend's Post enforces: a pair context is
/// set and exactly one of the two HIT lists is non-empty. Exposed so custom
/// backends can validate the same way the built-in ones do.
Status ValidateBatchShape(const HitBatch& batch);

/// \brief Abstract crowd. One backend instance spans one workflow run; the
/// workflow posts HIT batches in round order and polls each ticket exactly
/// once before posting the next round (the driver's shape — backends may,
/// but need not, support multiple outstanding tickets).
class CrowdBackend {
 public:
  virtual ~CrowdBackend() = default;  ///< virtual for interface use

  /// \brief Publishes one batch of HITs. The batch (and the vectors it
  /// points at) must stay alive until the ticket has been polled.
  virtual Result<Ticket> Post(const HitBatch& batch) = 0;

  /// \brief Collects the answers for `ticket`: votes (per HIT, in cast
  /// order) plus the batch's assignment records.
  virtual Result<VoteBatch> Poll(Ticket ticket) = 0;

  /// \brief Terminal: returns the run's crowd statistics (cost, latency,
  /// assignment audit trail — the `votes` table stays empty; votes were
  /// delivered through Poll). Fails if a posted ticket was never polled.
  virtual Result<CrowdRunResult> Finish() = 0;
};

/// \brief Construction knobs for SimulatedCrowdBackend.
struct SimulatedCrowdOptions {
  /// Worker threads for the per-HIT-parallel simulation (workflow
  /// convention: 0 = auto, 1 = serial). Identical output at any value.
  uint32_t num_threads = 1;
  /// Optional export tee: every polled response (and the finish record) is
  /// also appended to this writer — `record:` mode. Must outlive the
  /// backend.
  VoteLogWriter* tee = nullptr;
};

/// \brief The deterministic simulator behind the backend interface — the
/// one code that answers a simulated HIT.
///
/// Every HIT is simulated from its own Rng derived from (platform seed,
/// global HIT index), never from state mutated by earlier HITs, and its
/// workers answer from that stream (Worker::AnswerPairWith), not from their
/// own — so a worker's verdicts do not depend on what else they were
/// assigned. Two consequences the workflow relies on (pinned by crowd_test
/// and the golden workflow test):
///
///   1. Batch boundaries are invisible: one HIT per Post, one big Post, or
///      any split in between — each batch carrying its own pair context —
///      yields bitwise-identical votes, assignments and statistics.
///   2. Thread counts are invisible: a batch is simulated with
///      exec::ParallelMap, per-HIT outcomes land in slots indexed by
///      position and merge in HIT order (exec/parallel.h's layout
///      determinism), so any `num_threads` produces the same bytes.
///
/// A batch may carry pair-based or cluster-based HITs, and a run may mix
/// them (a cluster round's repair HITs are pair-based). The wall-clock
/// completion simulation (worker arrival process) needs the whole
/// assignment list, so it runs once, sequentially, inside Finish() from its
/// own derived stream; the first batch's HIT kind selects its interface
/// familiarity. A batch that names a pair outside its context fails
/// mid-merge, with a prefix of its HITs already counted, so it latches the
/// backend: every later Post and Finish is rejected.
class SimulatedCrowdBackend : public CrowdBackend {
 public:
  /// \brief Construction knobs (alias; see SimulatedCrowdOptions).
  using Options = SimulatedCrowdOptions;

  /// \brief Builds the worker pool from (model, seed) and simulates over
  /// it. Fails on a malformed model or an infeasible pool
  /// (CrowdPlatform::Validate), naming the cause. `entity_of` (ground truth
  /// per record) must outlive the backend.
  static Result<std::unique_ptr<SimulatedCrowdBackend>> Create(
      const CrowdModel& model, uint64_t seed, const std::vector<uint32_t>& entity_of,
      Options options = Options());

  Result<Ticket> Post(const HitBatch& batch) override;
  Result<VoteBatch> Poll(Ticket ticket) override;
  Result<CrowdRunResult> Finish() override;

 private:
  /// Everything one simulated HIT produces, merged in HIT order.
  struct HitOutcome {
    Status status;                ///< first validation error wins, deterministically
    std::vector<PairVote> votes;  ///< in cast order
    std::vector<AssignmentRecord> assignments;
    double visible_items = 0.0;
  };

  SimulatedCrowdBackend(const CrowdModel& model, uint64_t seed,
                        const std::vector<uint32_t>& entity_of, Options options);

  /// Answers the HIT at position `pos` of `batch` (pair_index_ holds the
  /// batch's context).
  HitOutcome SimulatePairHit(const HitBatch& batch, size_t pos) const;
  /// The §6 labelling procedure over the cluster HIT at position `pos`.
  HitOutcome SimulateClusterHit(const HitBatch& batch, size_t pos) const;

  CrowdPlatform platform_;
  const std::vector<uint32_t>& entity_of_;
  VoteLogWriter* tee_ = nullptr;
  std::unique_ptr<exec::ThreadPool> pool_;  ///< null when serial
  /// PairKey(a, b) -> position in the posted batch's pair context.
  std::unordered_map<uint64_t, size_t> pair_index_;
  /// The answer prepared by Post, awaiting its Poll.
  VoteBatch pending_votes_;
  const HitBatch* pending_batch_ = nullptr;  // non-owning; valid until Poll
  /// Accumulated across batches; Finish completes it.
  CrowdRunResult stats_;
  double total_visible_ = 0.0;
  uint32_t next_hit_ = 0;
  bool cluster_interface_ = false;
  Ticket next_ticket_ = 0;
  bool ticket_outstanding_ = false;
  bool failed_ = false;
  bool finished_ = false;
};

/// \brief The answer-producing function a CallbackCrowdBackend wraps: given
/// a posted batch, return its votes and assignment records (or an error).
using CrowdCallback = std::function<Result<VoteBatch>(const HitBatch&)>;

/// \brief A crowd implemented by a user-supplied function — the embedding
/// hook for tests, ground-truth oracles, and adapters to live platforms.
///
/// Finish() assembles statistics from what the callback returned
/// (HIT/assignment counts, durations, distinct workers); cost and
/// wall-clock latency stay zero unless the embedder knows better — they are
/// platform concerns the callback cannot see.
class CallbackCrowdBackend : public CrowdBackend {
 public:
  /// \brief Wraps `callback`; it is invoked once per posted batch, at Poll.
  explicit CallbackCrowdBackend(CrowdCallback callback);

  Result<Ticket> Post(const HitBatch& batch) override;
  Result<VoteBatch> Poll(Ticket ticket) override;
  Result<CrowdRunResult> Finish() override;

 private:
  CrowdCallback callback_;
  const HitBatch* pending_batch_ = nullptr;  // non-owning; valid until Poll
  Ticket next_ticket_ = 0;
  bool ticket_outstanding_ = false;
  bool finished_ = false;
  CrowdRunResult stats_;
};

}  // namespace crowd
}  // namespace crowder

#endif  // CROWDER_CROWD_BACKEND_H_

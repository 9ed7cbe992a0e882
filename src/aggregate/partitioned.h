/// \file
/// \brief Partition-aware answer aggregation: majority vote and Dawid-Skene
/// EM over a *sharded* vote table, so the full table never has to be
/// resident.
///
/// The vote table's pair-indexing contract (aggregate/votes.h) aligns
/// `votes[i]` with pair *i* of the surviving pair list. A sharded table
/// slices that index space into contiguous ranges — shard *s* covers global
/// pair indices `[start_s, start_s + size_s)` — and exposes them through
/// `VoteShardSource`, which lends one shard at a time in flat form
/// (`FlatVoteShard`: CSR row offsets plus packed votes naming workers by a
/// dense index; see `VoteShardStore` in core/partition.h for the spilling
/// store). Aggregation then runs with only **one resident shard plus
/// O(#workers) model state**:
///
///  * `FitDawidSkeneSharded` runs the EM of `RunDawidSkene` as repeated
///    passes over the shard sequence. The trick that removes the O(|P|)
///    posterior vector entirely: the E-step posterior of a pair is a pure
///    function of (its votes, the previous iteration's worker model), so
///    each M-step pass *recomputes* the posteriors shard-by-shard from the
///    previous model instead of storing them. Because shards partition the
///    index space in order, every floating-point accumulation (worker
///    confusion masses, the class prior) happens in exactly the order the
///    materialized loop uses — the fitted model, iteration count, and
///    convergence flag are bitwise-identical, and `RunDawidSkene` itself is
///    a thin single-shard wrapper over this implementation.
///  * `ShardMatchProbabilities` is the one posterior pass: the Dawid-Skene
///    posterior of every pair of a shard under a fitted model, or the
///    majority fraction under an unfitted one. Pairs are independent under
///    both, so the sharded result is bitwise the materialized one at any
///    partitioning.
#ifndef CROWDER_AGGREGATE_PARTITIONED_H_
#define CROWDER_AGGREGATE_PARTITIONED_H_

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "aggregate/dawid_skene.h"
#include "aggregate/votes.h"
#include "common/result.h"

namespace crowder {
namespace aggregate {

/// \brief One vote packed into 32 bits: `dense_worker << 1 | says_match`,
/// where `dense_worker` indexes the source's `worker_ids()`.
inline constexpr uint32_t PackVote(uint32_t dense_worker, bool says_match) {
  return dense_worker << 1 | (says_match ? 1u : 0u);
}

/// \brief Dense worker indices must fit the 31 bits `PackVote` leaves them.
inline constexpr uint32_t kMaxDenseWorkers = uint32_t{1} << 31;

/// \brief Interns worker ids into dense indices in order of first
/// appearance: the worker space a VoteShardSource publishes as
/// `worker_ids()`.
class DenseWorkerIndex {
 public:
  /// \brief The dense index of `worker_id`, assigning the next one on first
  /// sight; OutOfRange once `kMaxDenseWorkers` workers are interned.
  Result<uint32_t> Intern(uint32_t worker_id);
  /// \brief Worker ids by dense index.
  const std::vector<uint32_t>& worker_ids() const { return worker_ids_; }

 private:
  std::unordered_map<uint32_t, uint32_t> dense_of_;
  std::vector<uint32_t> worker_ids_;
};

/// \brief One vote shard in compressed sparse row form. The votes of local
/// pair `i` are `votes[offsets[i], offsets[i + 1])`, packed by `PackVote`,
/// in cast order. `offsets` need not cover every pair: each pair at or past
/// `num_rows()` is voteless, so a shard no vote reached costs nothing
/// however many pairs it covers (the stores end the rows at the last voted
/// pair).
struct FlatVoteShard {
  /// Pairs the shard covers (local indices `[0, num_pairs)`).
  uint64_t num_pairs = 0;
  /// Row boundaries into `votes`; empty or `num_rows() + 1` entries.
  std::vector<uint32_t> offsets;
  /// Packed votes, row after row.
  std::vector<uint32_t> votes;

  /// \brief Local pairs with a row in `offsets`.
  size_t num_rows() const { return offsets.empty() ? 0 : offsets.size() - 1; }
};

/// \brief Read interface over a vote table sharded into contiguous pair
/// ranges, in global pair order. Reads are repeatable (EM scans the shard
/// sequence once per iteration) and may perform disk I/O.
class VoteShardSource {
 public:
  virtual ~VoteShardSource() = default;  ///< virtual for interface use

  /// \brief Number of shards; shard ids are `[0, num_shards())` in global
  /// pair order.
  virtual size_t num_shards() const = 0;

  /// \brief Worker ids by dense index: every packed vote of every shard
  /// names its worker by position in this list.
  virtual const std::vector<uint32_t>& worker_ids() const = 0;

  /// \brief Runs `fn` over shard `shard`. The shard is lent for the call
  /// only; its per-pair vote order is cast order (the order the
  /// materialized table would hold).
  virtual Status WithShard(size_t shard,
                           const std::function<Status(const FlatVoteShard&)>& fn) = 0;
};

/// \brief A materialized VoteTable split into the given consecutive range
/// sizes and flattened once, at construction. Serves the single-shard
/// wrapper (`RunDawidSkene`) and tests.
class InMemoryVoteShards : public VoteShardSource {
 public:
  /// \brief Flattens `table` into consecutive ranges of `shard_sizes` pairs,
  /// interning worker ids in order of first appearance. The sizes must sum
  /// to `table.size()` (checked).
  InMemoryVoteShards(const VoteTable& table, const std::vector<size_t>& shard_sizes);

  size_t num_shards() const override { return shards_.size(); }
  const std::vector<uint32_t>& worker_ids() const override { return workers_.worker_ids(); }
  Status WithShard(size_t shard,
                   const std::function<Status(const FlatVoteShard&)>& fn) override;

 private:
  DenseWorkerIndex workers_;
  std::vector<FlatVoteShard> shards_;
};

/// \brief A shard view with the votes of banned workers removed at read
/// time. The aggregation-side half of the worker-filter defense: the
/// underlying store keeps every vote (audit truth), while everything the
/// aggregators see — majority tallies, Dawid-Skene confusion masses — is
/// re-derived from the surviving votes only. Filtering at the shard
/// boundary keeps the bounded-memory property: one filtered shard plus a
/// ban bitmap over the dense workers.
///
/// When no worker that voted is banned, WithShard lends the inner shard
/// through untouched, so the unfiltered path (every golden) pays nothing.
class FilteredVoteShardSource : public VoteShardSource {
 public:
  /// \brief Wraps `inner` (not owned; must outlive the view, and its worker
  /// list must not grow afterwards). Ids in `banned` that never voted are
  /// ignored.
  FilteredVoteShardSource(VoteShardSource* inner, const std::unordered_set<uint32_t>& banned);

  size_t num_shards() const override { return inner_->num_shards(); }
  const std::vector<uint32_t>& worker_ids() const override { return inner_->worker_ids(); }
  Status WithShard(size_t shard,
                   const std::function<Status(const FlatVoteShard&)>& fn) override;

 private:
  VoteShardSource* inner_;
  std::vector<bool> banned_;  ///< by dense worker; empty when no voter is banned
  FlatVoteShard filtered_;    ///< the current shard minus banned votes
};

/// \brief A fitted Dawid-Skene model: everything EM learns except the
/// per-pair posteriors (recover those with `ShardMatchProbabilities`).
struct DawidSkeneModel {
  /// Per-worker confusion estimates, keyed by worker id.
  std::unordered_map<uint32_t, WorkerQuality> workers;
  /// Estimated P(match) over judged pairs.
  double class_prior = 0.5;
  /// EM iterations executed.
  int iterations = 0;
  /// Whether the posterior change fell below the tolerance.
  bool converged = false;
  /// The E-step's per-vote terms, indexed by packed vote in the dense
  /// worker space of the source the model was fitted on:
  /// `{log P(vote | match), log P(vote | non-match)}`. Empty when no EM
  /// iteration ran.
  std::vector<std::array<double, 2>> vote_log_terms;
  /// `{log(class_prior), log(1 - class_prior)}`.
  std::array<double, 2> log_prior{};
};

/// \brief Fits Dawid-Skene by EM over the shard sequence, holding one shard
/// plus the O(#workers) model resident. One pass over all shards per
/// iteration. Bitwise-identical to the model `RunDawidSkene` fits on the
/// concatenated table (same iteration count, convergence flag, worker
/// estimates, and class prior).
///
/// The M-step accumulates into vectors indexed by dense worker, and each
/// iteration takes the four logs of every worker's confusion estimates
/// once, so an E-step is two table reads and two additions per vote. The
/// deliberate trade of the recompute formulation: each pass evaluates the
/// E-step up to twice per voted pair (current and previous model, for the
/// convergence delta) where a stored-posterior loop would evaluate once —
/// doubling E-step work to eliminate the O(|P|) posterior vector and keep
/// one implementation for both execution modes. The fit is still most of
/// the aggregation: on the benchmark's `stream_defended` workload (204,393
/// votes over 15 passes, Release, one thread of a 4-vCPU Xeon) it takes
/// about 60 ms of an 80 ms aggregate stage.
Result<DawidSkeneModel> FitDawidSkeneSharded(VoteShardSource* shards,
                                             const DawidSkeneOptions& options = {});

/// \brief The match probability of every pair of shard `shard`, into `out`
/// (resized to the shard's pair count): the E-step posterior under `model`
/// — exactly the arithmetic the EM loop uses — or, when `model` has no
/// terms (unfitted, or fitted to no votes), the majority fraction, the
/// E-step's initialization. Voteless pairs get `kUnjudgedMatchProbability`.
/// `model` must have been fitted on `shards` (same dense worker space); a
/// fitted model whose terms do not cover the source's workers is an
/// InvalidArgument.
Status ShardMatchProbabilities(VoteShardSource* shards, size_t shard,
                               const DawidSkeneModel& model, std::vector<double>* out);

}  // namespace aggregate
}  // namespace crowder

#endif  // CROWDER_AGGREGATE_PARTITIONED_H_

/// \file
/// \brief The vote table and the aggregation over it: majority vote and
/// Dawid-Skene EM read a *sharded* vote table, so the full table never has
/// to be resident.
///
/// The vote table's pair-indexing contract (aggregate/votes.h) aligns
/// `votes[i]` with pair *i* of the surviving pair list. `VoteShardStore`
/// slices that index space into contiguous ranges — shard *s* covers global
/// pair indices `[start_s, start_s + size_s)` — and lends one shard at a
/// time in flat form (`FlatVoteShard`: CSR row offsets plus packed votes
/// naming workers by a dense index). It is the only vote table: the
/// workflow files its crowd rounds' votes into one, and `RunDawidSkene`
/// loads an in-memory `VoteTable` into one. Both keep their blocks in a
/// `ShardedSpillStore` (common/spill.h), so aggregation runs with only
/// **one resident shard plus O(#workers) model state**:
///
///  * `FitDawidSkeneSharded` runs the EM as repeated passes over the shard
///    sequence. The trick that removes the O(|P|) posterior vector
///    entirely: the E-step posterior of a pair is a pure function of (its
///    votes, the previous iteration's worker model), so each M-step pass
///    *recomputes* the posteriors shard-by-shard from the previous model
///    instead of storing them. Because shards partition the index space in
///    order, every floating-point accumulation (worker confusion masses,
///    the class prior) happens in the global pair order at any
///    partitioning — the fitted model, iteration count, and convergence
///    flag are bitwise-identical across shard layouts.
///  * `ShardMatchProbabilities` is the one posterior pass: the Dawid-Skene
///    posterior of every pair of a shard under a fitted model, or the
///    majority fraction under an unfitted one. Pairs are independent under
///    both, so the sharded result is bitwise the single-shard one at any
///    partitioning.
#ifndef CROWDER_AGGREGATE_PARTITIONED_H_
#define CROWDER_AGGREGATE_PARTITIONED_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "aggregate/dawid_skene.h"
#include "aggregate/votes.h"
#include "common/result.h"
#include "common/spill.h"

namespace crowder {
namespace aggregate {

/// \brief One vote packed into 32 bits: `dense_worker << 1 | says_match`,
/// where `dense_worker` indexes the store's `worker_ids()`.
inline constexpr uint32_t PackVote(uint32_t dense_worker, bool says_match) {
  return dense_worker << 1 | (says_match ? 1u : 0u);
}

/// \brief Dense worker indices must fit the 31 bits `PackVote` leaves them.
inline constexpr uint32_t kMaxDenseWorkers = uint32_t{1} << 31;

/// \brief A view of one vote shard in compressed sparse row form, lent by
/// `VoteShardStore::WithShard` for the call only. The votes of local pair
/// `i < num_rows` are `votes[offsets[i], offsets[i + 1])`, packed by
/// `PackVote`, in cast order. Each pair at or past `num_rows` is voteless,
/// so a shard no vote reached costs nothing however many pairs it covers
/// (rows end at the last pair with a surviving vote).
struct FlatVoteShard {
  /// Pairs the shard covers (local indices `[0, num_pairs)`).
  uint64_t num_pairs = 0;
  /// Local pairs with a row.
  size_t num_rows = 0;
  /// `num_rows + 1` row boundaries into `votes`; unset when `num_rows` is 0.
  const uint32_t* offsets = nullptr;
  /// Packed votes, row after row.
  const uint32_t* votes = nullptr;
};

/// \brief The vote table: votes keyed by *global pair index*, sharded into
/// the contiguous index ranges given at construction, and lent back as
/// `FlatVoteShard` views in global pair order for aggregation.
///
/// Two phases. While votes arrive, `Append` interns each worker id into a
/// dense index, in order of first appearance, and stages
/// `(local pair, packed vote)` records append-order per shard in a
/// `ShardedSpillStore`. `Finish` then compacts each shard once into CSR
/// form by a counting sort on the local pair index, dropping the votes of
/// banned workers as it goes, and keeps the compacted shards in a second
/// `ShardedSpillStore`: one block per shard, its offsets followed by its
/// votes. A resident shard is lent without a copy; a spilled one is read
/// back whole into one reused buffer.
///
/// Per-pair vote order is preserved: appends arrive in global cast order
/// (HIT order, then cast order within a HIT), each shard's staged log
/// replays in append order, and the counting sort is stable — so the
/// per-pair vote sequences are the cast order at any shard layout, which
/// keeps Dawid-Skene bitwise-identical across partition capacities. A
/// banned worker keeps its dense index (every voter is interned at
/// `Append`); only its votes go.
///
/// Not thread-safe, reads included: const as they are, `WithShard` calls
/// share the one read buffer, so they stay on one thread and do not nest.
class VoteShardStore {
 public:
  /// \brief `shard_pair_counts[s]` is the number of pairs shard `s` covers;
  /// the shards tile the global pair index space in order.
  VoteShardStore(uint64_t memory_budget_bytes, std::vector<uint64_t> shard_pair_counts);

  /// \brief Files one vote under the pair at `global_pair_index`.
  Status Append(uint64_t global_pair_index, const Vote& vote);

  /// \brief Compacts every shard, dropping every vote a worker in `banned`
  /// cast (ids that never voted are ignored), and seals the store; required
  /// before WithShard. Aggregation thus derives every decision from the
  /// surviving votes.
  Status Finish(const std::unordered_set<uint32_t>& banned = {});

  /// \brief Number of shards; shard ids are `[0, num_shards())` in global
  /// pair order.
  size_t num_shards() const { return counts_.size(); }
  /// \brief Worker ids by dense index: every packed vote of every shard
  /// names its worker by position in this list.
  const std::vector<uint32_t>& worker_ids() const { return worker_ids_; }
  /// \brief First global pair index shard `shard` covers.
  uint64_t shard_start(size_t shard) const;
  /// \brief Number of pairs shard `shard` covers.
  uint64_t shard_pairs(size_t shard) const;
  /// \brief Votes filed across all shards, banned workers' included.
  uint64_t total_votes() const;
  /// \brief Vote bytes written to disk: the staged records that spilled
  /// before Finish plus the compacted shards that spilled at Finish.
  uint64_t spilled_bytes() const;

  /// \brief Runs `fn` over shard `shard`, lent for the call only; requires
  /// Finish. Reads are repeatable (EM scans the shard sequence once per
  /// iteration) and may perform disk I/O. A spilled shard is read into the
  /// store's one reused buffer, so `fn` must not call WithShard again and no
  /// other thread may read the store meanwhile.
  Status WithShard(size_t shard, const std::function<Status(const FlatVoteShard&)>& fn) const;

 private:
  /// One staged vote.
  struct StagedVote {
    uint32_t local_index = 0;  ///< pair index within the shard
    uint32_t vote = 0;         ///< PackVote(dense worker, verdict)
  };

  std::unique_ptr<ShardedSpillStore<StagedVote>> staged_;  ///< null after Finish
  ShardedSpillStore<uint32_t> compacted_;
  std::vector<uint64_t> counts_;
  std::vector<uint64_t> starts_;  ///< prefix sums of counts_
  std::vector<size_t> rows_;      ///< per shard, set by Finish
  size_t last_shard_ = 0;         ///< locality hint: votes arrive mostly in order
  std::unordered_map<uint32_t, uint32_t> dense_of_;  ///< worker id -> dense index
  std::vector<uint32_t> worker_ids_;                  ///< dense index -> worker id
  std::vector<uint32_t> shard_votes_;  ///< votes filed per shard
  uint64_t staged_spilled_bytes_ = 0;
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

/// \brief Fits Dawid-Skene by EM over the shard sequence of a finished
/// store, holding one shard plus the O(#workers) model resident. One pass
/// over all shards per iteration; the same model at any shard layout (same
/// iteration count, convergence flag, worker estimates, and class prior).
///
/// The M-step accumulates into vectors indexed by dense worker, and each
/// iteration takes the four logs of every worker's confusion estimates
/// once, so an E-step is two table reads and two additions per vote. The
/// deliberate trade of the recompute formulation: each pass evaluates the
/// E-step up to twice per voted pair (current and previous model, for the
/// convergence delta) where a stored-posterior loop would evaluate once —
/// doubling E-step work to eliminate the O(|P|) posterior vector. The fit
/// is still most of the aggregation: on the benchmark's `stream_defended`
/// workload (204,393 votes over 15 passes, Release, one thread of a 4-vCPU
/// Xeon) it takes about 60 ms of an 80 ms aggregate stage.
Result<DawidSkeneModel> FitDawidSkeneSharded(const VoteShardStore& votes);

/// \brief The match probability of every pair of shard `shard`, into `out`
/// (resized to the shard's pair count): the E-step posterior under `model`
/// — exactly the arithmetic the EM loop uses — or, when `model` has no
/// terms (unfitted, or fitted to no votes), the majority fraction, the
/// E-step's initialization. Voteless pairs get `kUnjudgedMatchProbability`.
/// `model` must have been fitted on `votes` (same dense worker space); a
/// fitted model whose terms do not cover the store's workers is an
/// InvalidArgument.
Status ShardMatchProbabilities(const VoteShardStore& votes, size_t shard,
                               const DawidSkeneModel& model, std::vector<double>* out);

}  // namespace aggregate
}  // namespace crowder

#endif  // CROWDER_AGGREGATE_PARTITIONED_H_

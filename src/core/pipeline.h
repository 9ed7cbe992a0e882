// The streaming substrate of the workflow.
//
// CrowdER is a pipeline by construction (§2.2): machine pass → prune → HIT
// generation → crowd → aggregate. WorkflowDriver (core/driver.h) runs the
// phases as plain functions over the shared WorkflowState (core/stages.h),
// timing each into PipelineStats, with the crowd rounds in between (timed
// as the "crowd" stage) serving the contexts HIT generation laid out. This
// header holds what flows between them:
//
//  * PairStream — the spillable candidate-pair stream between the machine
//    pass and its consumers. The producer appends blocks (each internally
//    sorted by (a, b), as BlockedAllPairsJoinStream emits them) as sorted
//    runs of one ShardedSpillStore (common/spill.h), which keeps them
//    resident or spills them under `memory_budget_bytes`. Consumers read
//    back with ScanSorted — a k-way merge across the runs that yields pairs
//    in exactly SortPairs order, which is what makes the workflow's output
//    independent of block size and budget: the merge of per-block sorted
//    runs over a disjoint pair set IS the globally sorted pair list,
//    whether or not any run ever touched disk.
//
//  * PipelineStats — what a run reports about itself: per-stage wall times
//    and the spill, partition and round counters.
#ifndef CROWDER_CORE_PIPELINE_H_
#define CROWDER_CORE_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/result.h"
#include "common/spill.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace core {

/// \brief One producer-emitted batch of scored candidate pairs.
using PairBlock = std::vector<similarity::ScoredPair>;

/// \brief Bounded buffer of candidate-pair blocks: each block is one sorted
/// run of a ShardedSpillStore, resident up to `memory_budget_bytes` and
/// spilled beyond it (0 = unbounded, never spills). Single producer, then
/// Finish(), then any number of ScanSorted passes. Not thread-safe; the
/// workflow appends from the join's sink on the driving thread.
class PairStream {
 public:
  explicit PairStream(uint64_t memory_budget_bytes = 0) : runs_(memory_budget_bytes) {
    runs_.AddShards(1);
  }

  /// Appends one block (need not be sorted relative to other blocks, but
  /// must itself be (a, b)-sorted — the BlockedAllPairsJoinStream contract —
  /// for ScanSorted's merge to be correct). Empty blocks are dropped.
  Status Append(PairBlock&& block) { return runs_.Append(0, std::move(block)); }

  /// Seals the stream; Append afterwards is an error.
  Status Finish() { return runs_.Finish(); }

  uint64_t num_pairs() const { return runs_.total_records(); }
  /// Pair bytes currently resident in memory.
  uint64_t memory_bytes() const { return runs_.memory_bytes(); }
  uint64_t spilled_bytes() const { return runs_.spilled_bytes(); }
  bool spilled() const { return runs_.spilled_blocks() > 0; }

  /// Visits every pair in globally ascending (a, b) order — byte-identical
  /// to SortPairs over the concatenation of all blocks — in batches of at
  /// most `batch_pairs`. Requires Finish(); repeatable. A non-OK status from
  /// `fn` aborts the scan with that status. (Implemented over SortedCursor.)
  Status ScanSorted(const std::function<Status(const PairBlock&)>& fn,
                    size_t batch_pairs = 8192) const;

  /// \brief A resumable sorted scan: the pull-shaped dual of ScanSorted.
  /// Callers draw the globally sorted pair sequence in increments of their
  /// choosing and may stop between draws — which is what lets the
  /// step/poll WorkflowDriver (core/driver.h) surface one crowd partition
  /// at a time without re-merging from the start. Same bytes as ScanSorted.
  class SortedCursor {
   public:
    SortedCursor(SortedCursor&&) noexcept;
    SortedCursor& operator=(SortedCursor&&) noexcept;
    ~SortedCursor();

    /// Appends up to `max_pairs` further pairs (continuing the global
    /// (a, b) order) to `*out`. Returns how many were appended; 0 means the
    /// stream is exhausted.
    Result<size_t> Next(size_t max_pairs, std::vector<similarity::ScoredPair>* out);

   private:
    friend class PairStream;
    struct Impl;
    explicit SortedCursor(std::unique_ptr<Impl> impl);
    std::unique_ptr<Impl> impl_;
  };

  /// Opens a cursor at the start of the sorted order. Requires Finish();
  /// the stream must outlive the cursor. Any number of concurrent cursors
  /// may be open (each holds its own read positions).
  Result<SortedCursor> OpenSortedCursor() const;

  /// Materializes the full sorted pair list, for callers that need P
  /// itself (e.g. comparing a sharded pass with the single-process one).
  Result<std::vector<similarity::ScoredPair>> MaterializeSorted() const;

 private:
  ShardedSpillStore<similarity::ScoredPair> runs_;  ///< one shard; a block per run
};

/// \brief Wall time of one pipeline stage.
struct StageTiming {
  std::string name;
  double wall_ms = 0.0;
};

/// \brief What a pipeline run reports about itself (never part of the
/// byte-identity contract across budgets and partition capacities).
struct PipelineStats {
  std::vector<StageTiming> stages;
  /// Bytes the candidate stream spilled to disk (0 when under budget).
  uint64_t spilled_bytes = 0;
  /// Crowd-boundary partitions the run was split into (pair partitions for
  /// pair-based HITs, HIT ranges for cluster-based; 1 when unbounded),
  /// counted as each one's context retires.
  uint64_t crowd_partitions = 0;
  /// Bytes the partitioned vote table spilled to disk.
  uint64_t vote_spilled_bytes = 0;
  /// Bytes the component-bucket and HIT-range pair stores spilled to disk
  /// (cluster-based only).
  uint64_t boundary_spilled_bytes = 0;
  /// Wall time HIT generation spent building the inverted pair→HIT-range
  /// store that routes each candidate pair to the HIT ranges whose HITs ask
  /// it (cluster-based only; one pass over the bucket stores, inside the
  /// "hit-gen" stage).
  double cluster_index_wall_ms = 0.0;
  /// Cumulative wall time the cluster rounds spent assembling their pair
  /// contexts (cluster-based only). Together with
  /// cluster_index_wall_ms this is the before/after axis of the pair→HIT
  /// join rework recorded in BENCH_machine.json.
  double cluster_context_wall_ms = 0.0;
  /// Per-crowd-round wall times, microseconds (one Record per answered HIT
  /// batch, repair rounds included). The aggregate "crowd" stage timing
  /// hides the per-round spread this keeps: a bounded run's many small
  /// rounds vs the unbounded run's single one.
  Histogram round_wall_micros;
};

}  // namespace core
}  // namespace crowder

#endif  // CROWDER_CORE_PIPELINE_H_

// The shard coordinator: plans the bands (plan.h), ships each worker its
// slice, and gathers the per-shard owned pair streams.
//
// Output contract (what makes the downstream k-way merge exact): the sink
// receives blocks where
//   * every block is internally (a, b)-sorted — each is a contiguous
//     chunk of one shard's sorted owned pair list;
//   * the pair sets of different shards are disjoint (the ownership
//     lemma, plan.h);
//   * the union over all blocks is exactly the single-process
//     AllPairsJoin pair set, scores bitwise equal (worker.h).
// Feeding the blocks to core::PairStream and scanning sorted therefore
// reproduces the single-process SortPairs order byte-for-byte — the merge
// and the proof are the ones the streaming pipeline already uses; this
// module only has to hand over blocks that satisfy the same contract.
//
// I/O schedule (deadlock-free on blocking pipes): specs are written to
// workers 0..N-1 sequentially, then result streams are read back in the
// same order. A worker never writes before its spec is sealed and the
// coordinator never reads before all specs are sealed, so the only
// blocking edge at any moment is coordinator -> one worker — no cycle.
// Workers overlap freely: shard 0 joins while shard 3's spec is still
// being written, and blocked result pipes simply park finished workers.
#ifndef CROWDER_SHARD_COORDINATOR_H_
#define CROWDER_SHARD_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "shard/plan.h"
#include "shard/proto.h"
#include "shard/transport.h"

namespace crowder {
namespace shard {

/// \brief How a sharded join is executed.
struct ShardExecOptions {
  /// Number of worker shards (>= 1).
  uint32_t num_shards = 1;
  /// Path to the crowder_shardd binary; empty runs every worker in-process
  /// through InProcessTransport (same bytes, no subprocesses).
  std::string worker_path;
  /// Test hook: overrides transport creation for shard i (fault injection).
  /// When set, worker_path is ignored.
  std::function<Result<std::unique_ptr<FrameTransport>>(uint32_t shard)> transport_factory;
};

/// \brief Per-shard statistics, in shard order, plus coordinator-side
/// timings. Informational only — never part of the byte-identity contract.
struct ShardRunStats {
  std::vector<WorkerStats> shards;
  double plan_wall_ms = 0.0;
  /// Writing the specs (serialization + pipe writes).
  double ship_wall_ms = 0.0;
  /// Reading + decoding the result streams (includes worker compute the
  /// coordinator waited out).
  double gather_wall_ms = 0.0;
  uint64_t total_pairs = 0;
  bool subprocess = false;
};

/// \brief Receives the gathered pair blocks (see the header contract).
/// A non-OK return aborts the run with that status.
using ShardPairSink = std::function<Status(std::vector<similarity::ScoredPair>&&)>;

/// \brief Runs the sharded join end to end. Requires threshold > 0 and
/// exec.num_shards >= 1. Any worker failure — a kWorkerError frame, a
/// died subprocess (EOF / EPIPE / non-zero exit), a corrupt stream —
/// returns a clean Status naming the shard; spawned workers are always
/// reaped (no zombies, no hangs). `stats` may be nullptr.
Status RunShardedJoin(const similarity::JoinInput& input,
                      const similarity::JoinOptions& options, const ShardExecOptions& exec,
                      const ShardPairSink& sink, ShardRunStats* stats);

}  // namespace shard
}  // namespace crowder

#endif  // CROWDER_SHARD_COORDINATOR_H_

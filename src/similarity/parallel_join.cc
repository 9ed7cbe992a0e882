#include "similarity/parallel_join.h"

#include <algorithm>
#include <memory>

#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "similarity/join_internal.h"

namespace crowder {
namespace similarity {

namespace {

struct ExecKnobs {
  std::unique_ptr<exec::ThreadPool> pool;  // null when running serial
  size_t chunk_size = 256;
  size_t block_records = 4096;
};

ExecKnobs ResolveKnobs(const ParallelJoinOptions& exec_options) {
  ExecKnobs knobs;
  const uint32_t threads = exec::ResolveNumThreads(exec_options.num_threads);
  // num_threads counts the caller, which always participates in draining
  // chunks (exec/parallel.h), so the pool supplies threads - 1 workers.
  if (threads > 1) knobs.pool = std::make_unique<exec::ThreadPool>(threads - 1);
  if (exec_options.chunk_size > 0) knobs.chunk_size = exec_options.chunk_size;
  if (exec_options.block_records > 0) knobs.block_records = exec_options.block_records;
  return knobs;
}

// Probes positions [begin, end) in chunks on the knobs' pool (on the caller
// alone without one) and concatenates the per-chunk pairs in chunk order.
// Each chunk keeps its own counters (a chunk is owned by one worker at a
// time, so no atomics), summed after the barrier.
std::vector<ScoredPair> ProbeChunks(const internal::PrefixIndex& index, size_t begin,
                                    size_t end, const ExecKnobs& knobs, JoinStats* stats) {
  const size_t num_chunks = begin == end ? 0 : (end - begin - 1) / knobs.chunk_size + 1;
  std::vector<std::vector<ScoredPair>> shards(num_chunks);
  std::vector<JoinStats> chunk_stats(num_chunks);
  exec::ParallelForChunks(knobs.pool.get(), begin, end, knobs.chunk_size,
                          [&](size_t chunk, size_t chunk_begin, size_t chunk_end) {
                            index.Probe(chunk_begin, chunk_end, &shards[chunk],
                                        &chunk_stats[chunk]);
                          });
  if (stats != nullptr) {
    for (const JoinStats& c : chunk_stats) {
      stats->pair_verifications += c.pair_verifications;
      stats->postings_scanned += c.postings_scanned;
      stats->candidates_pruned += c.candidates_pruned;
    }
  }
  size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  std::vector<ScoredPair> out;
  out.reserve(total);
  for (auto& shard : shards) {
    out.insert(out.end(), shard.begin(), shard.end());
  }
  return out;
}

}  // namespace

Result<std::vector<ScoredPair>> ParallelAllPairsJoin(const JoinInput& input,
                                                     const JoinOptions& options,
                                                     const ParallelJoinOptions& exec_options,
                                                     JoinStats* stats) {
  CROWDER_RETURN_NOT_OK(ValidateJoin(input, options));
  // Zero threshold admits every pair; prefix filtering degenerates exactly
  // as in the serial join, so defer to the same exhaustive reference.
  if (options.threshold <= 0.0) return NaiveJoin(input, options, stats);

  const internal::JoinPlan plan = internal::BuildJoinPlan(input);
  const internal::PrefixIndex index(input, options, plan);
  const ExecKnobs knobs = ResolveKnobs(exec_options);
  std::vector<ScoredPair> out = ProbeChunks(index, 0, plan.by_size.size(), knobs, stats);
  SortPairs(&out);
  return out;
}

Status BlockedAllPairsJoinStream(const JoinInput& input, const JoinOptions& options,
                                 const ParallelJoinOptions& exec_options,
                                 const PairSink& sink, JoinStats* stats) {
  CROWDER_RETURN_NOT_OK(ValidateJoin(input, options));
  if (options.threshold <= 0.0) {
    // Zero threshold admits every pair: the output is O(n^2) by definition,
    // so no algorithm can bound it — defer to the exhaustive join, but still
    // hand the sink bounded blocks (chunks of a sorted vector are each
    // sorted, and their union is the whole result) so the sink's own
    // accounting, e.g. a budgeted PairStream, keeps working.
    CROWDER_ASSIGN_OR_RETURN(auto all, NaiveJoin(input, options, stats));
    const size_t chunk = exec_options.block_records > 0
                             ? static_cast<size_t>(exec_options.block_records) * 16
                             : 65536;
    for (size_t begin = 0; begin < all.size(); begin += chunk) {
      const size_t end = std::min(all.size(), begin + chunk);
      CROWDER_RETURN_NOT_OK(
          sink(std::vector<ScoredPair>(all.begin() + static_cast<ptrdiff_t>(begin),
                                       all.begin() + static_cast<ptrdiff_t>(end))));
    }
    return Status::OK();
  }

  // The whole index is built up front; each block probes only earlier
  // positions, so blocks see exactly the partners the one-pass join does.
  const internal::JoinPlan plan = internal::BuildJoinPlan(input);
  const internal::PrefixIndex index(input, options, plan);
  const ExecKnobs knobs = ResolveKnobs(exec_options);
  const size_t n = plan.by_size.size();
  for (size_t block_begin = 0; block_begin < n; block_begin += knobs.block_records) {
    const size_t block_end = std::min(n, block_begin + knobs.block_records);
    std::vector<ScoredPair> block_pairs = ProbeChunks(index, block_begin, block_end, knobs, stats);
    SortPairs(&block_pairs);
    CROWDER_RETURN_NOT_OK(sink(std::move(block_pairs)));
  }
  return Status::OK();
}

}  // namespace similarity
}  // namespace crowder

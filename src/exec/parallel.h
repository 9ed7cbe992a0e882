// Chunk-scheduling parallel loops on top of exec::ThreadPool.
//
// Scheduling model: the index range is cut into fixed-size chunks; the
// calling thread and up to num_workers() helper tasks claim chunks from one
// atomic counter (no work stealing). Which thread runs which chunk is
// nondeterministic, but every per-chunk output is written into a slot
// indexed by chunk id and combined in chunk order, so results are
// bit-identical at any thread count — determinism is a property of the
// data layout, not the schedule.
//
// Because the caller always participates in draining chunks, these helpers
// are safe to call from inside a pool task (nested parallel regions): if
// every worker is busy, the caller simply runs all chunks itself and the
// leftover helper tasks find the counter exhausted and return.
//
// Exception contract: fn may throw. Each chunk's exception is captured in
// its slot and, after the region completes, the exception of the
// lowest-indexed failing chunk is rethrown — deterministic regardless of
// scheduling.
#ifndef CROWDER_EXEC_PARALLEL_H_
#define CROWDER_EXEC_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/thread_pool.h"

namespace crowder {
namespace exec {

/// \brief Runs fn(chunk_index, chunk_begin, chunk_end) over [begin, end) cut
/// into chunks of `chunk_size` (the last chunk may be short). `pool` may be
/// null: the caller then runs every chunk serially, in order.
void ParallelForChunks(ThreadPool* pool, size_t begin, size_t end, size_t chunk_size,
                       const std::function<void(size_t, size_t, size_t)>& fn);

/// \brief Runs fn(i) for every i in [begin, end). Element-wise convenience
/// wrapper over ParallelForChunks.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t chunk_size,
                 const std::function<void(size_t)>& fn);

/// \brief Maps fn over [0, n) into a vector whose i-th element is fn(i) —
/// output order is index order, independent of scheduling.
template <typename T>
std::vector<T> ParallelMap(ThreadPool* pool, size_t n, size_t chunk_size,
                           const std::function<T(size_t)>& fn) {
  std::vector<T> out(n);
  ParallelFor(pool, 0, n, chunk_size, [&](size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace exec
}  // namespace crowder

#endif  // CROWDER_EXEC_PARALLEL_H_

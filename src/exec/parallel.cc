#include "exec/parallel.h"

#include <algorithm>
#include <utility>

namespace crowder {
namespace exec {

namespace {

// State shared between the caller and its helper tasks. Held by shared_ptr
// so a helper scheduled after the region already completed (all chunks
// claimed by faster threads) still has a live object to look at.
struct RegionState {
  size_t begin = 0;
  size_t end = 0;
  size_t chunk_size = 1;
  size_t num_chunks = 0;
  const std::function<void(size_t, size_t, size_t)>* fn = nullptr;

  std::atomic<size_t> next_chunk{0};
  std::atomic<size_t> done_chunks{0};
  std::mutex mu;
  std::condition_variable all_done_cv;
  std::vector<std::exception_ptr> errors;  // slot per chunk

  // Claims and runs chunks until the counter is exhausted.
  void Drain() {
    for (;;) {
      const size_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return;
      const size_t chunk_begin = begin + chunk * chunk_size;
      const size_t chunk_end = std::min(end, chunk_begin + chunk_size);
      try {
        (*fn)(chunk, chunk_begin, chunk_end);
      } catch (...) {
        errors[chunk] = std::current_exception();
      }
      if (done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 == num_chunks) {
        std::unique_lock<std::mutex> lock(mu);
        all_done_cv.notify_all();
      }
    }
  }
};

}  // namespace

void ParallelForChunks(ThreadPool* pool, size_t begin, size_t end, size_t chunk_size,
                       const std::function<void(size_t, size_t, size_t)>& fn) {
  if (begin >= end) return;
  if (chunk_size == 0) chunk_size = 1;
  const size_t n = end - begin;
  const size_t num_chunks = (n - 1) / chunk_size + 1;

  // Serial fast path: no pool, no workers, or nothing to share.
  if (pool == nullptr || pool->num_workers() == 0 || num_chunks == 1) {
    std::exception_ptr first_error;
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      const size_t chunk_begin = begin + chunk * chunk_size;
      const size_t chunk_end = std::min(end, chunk_begin + chunk_size);
      try {
        fn(chunk, chunk_begin, chunk_end);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  auto state = std::make_shared<RegionState>();
  state->begin = begin;
  state->end = end;
  state->chunk_size = chunk_size;
  state->num_chunks = num_chunks;
  state->fn = &fn;
  state->errors.resize(num_chunks);

  // One helper per worker, but never more than could claim a chunk beyond
  // what the caller takes.
  const size_t helpers =
      std::min<size_t>(pool->num_workers(), num_chunks > 0 ? num_chunks - 1 : 0);
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([state] { state->Drain(); });
  }
  state->Drain();
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->all_done_cv.wait(lock, [&] {
      return state->done_chunks.load(std::memory_order_acquire) == state->num_chunks;
    });
  }
  // Deterministic selection: the lowest-indexed failing chunk wins. The
  // errors leave the shared state first, so every exception is released on
  // this thread, not by a helper that drops the last reference to the state
  // while the caller still reads the rethrown exception.
  const std::vector<std::exception_ptr> errors = std::move(state->errors);
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void ParallelFor(ThreadPool* pool, size_t begin, size_t end, size_t chunk_size,
                 const std::function<void(size_t)>& fn) {
  ParallelForChunks(pool, begin, end, chunk_size,
                    [&fn](size_t /*chunk*/, size_t chunk_begin, size_t chunk_end) {
                      for (size_t i = chunk_begin; i < chunk_end; ++i) fn(i);
                    });
}

}  // namespace exec
}  // namespace crowder

// Fixed-size worker pool for the parallel execution engine. Design goals,
// in order: deterministic results (scheduling never leaks into output —
// see parallel.h), bounded resources (no work stealing, one task queue,
// workers created once), and safe failure (a task that throws is captured
// and rethrown to the caller instead of terminating the process).
//
// Thread-count resolution is centralized here: HardwareConcurrency() honors
// the CROWDER_THREADS environment variable so CI and benches can pin worker
// counts reproducibly, and ResolveNumThreads() maps the public "0 = auto,
// 1 = serial" convention used by WorkflowConfig::num_threads and
// crowder_cli --threads.
#ifndef CROWDER_EXEC_THREAD_POOL_H_
#define CROWDER_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace crowder {
namespace exec {

/// \brief The most threads a thread count from outside may ask for
/// (CROWDER_THREADS, crowder_cli --threads), so a typo cannot ask the pool
/// for billions of workers.
constexpr uint32_t kMaxThreads = 4096;

/// \brief Number of hardware threads, overridable via the CROWDER_THREADS
/// environment variable (a whole number in [1, kMaxThreads]; unset falls
/// back to std::thread::hardware_concurrency(), and so does an invalid
/// value, with a warning). Never returns 0.
uint32_t HardwareConcurrency();

/// \brief Maps the public thread-count convention to an actual count:
/// 0 = HardwareConcurrency(), anything else is taken literally. Never
/// returns 0.
uint32_t ResolveNumThreads(uint32_t requested);

/// \brief A fixed set of worker threads draining one FIFO task queue.
///
/// `num_workers == 0` is allowed and degenerates to an inline executor:
/// Submit() runs the task on the calling thread. This keeps call sites free
/// of serial/parallel branches.
///
/// Exception contract: a task that throws does not kill the worker; the
/// first exception (in completion order) is stored and rethrown by the next
/// WaitIdle(). Parallel helpers that need deterministic exception selection
/// (parallel.h) do their own per-chunk capture and never let exceptions
/// reach the pool.
///
/// Nested submission is safe: tasks may Submit() further tasks. Tasks must
/// not call WaitIdle() (a worker waiting for the queue it is supposed to
/// drain would deadlock); the chunk-scheduling helpers in parallel.h are
/// the intended way to run nested parallel regions.
class ThreadPool {
 public:
  explicit ThreadPool(uint32_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_workers() const { return static_cast<uint32_t>(workers_.size()); }

  /// Enqueues `task`; with zero workers, runs it inline instead.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle, then rethrows
  /// the first stored task exception, if any.
  void WaitIdle();

 private:
  void WorkerLoop();
  void RunTask(const std::function<void()>& task);

  std::mutex mu_;
  std::condition_variable work_cv_;   // signalled on Submit / stop
  std::condition_variable idle_cv_;   // signalled when the pool drains
  std::deque<std::function<void()>> queue_;
  uint32_t active_ = 0;               // tasks currently executing
  bool stop_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
};

}  // namespace exec
}  // namespace crowder

#endif  // CROWDER_EXEC_THREAD_POOL_H_

#include "exec/thread_pool.h"

#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "common/string_util.h"

namespace crowder {
namespace exec {

uint32_t HardwareConcurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  const uint32_t hardware = hw == 0 ? 1 : static_cast<uint32_t>(hw);
  const char* env = std::getenv("CROWDER_THREADS");
  if (env == nullptr) return hardware;
  const Result<uint32_t> threads = ParseNumber<uint32_t>(env, "CROWDER_THREADS", 1, kMaxThreads);
  if (threads.ok()) return *threads;
  CROWDER_LOG(Warning) << threads.status().message() << "; using the hardware count, "
                       << hardware;
  return hardware;
}

uint32_t ResolveNumThreads(uint32_t requested) {
  return requested == 0 ? HardwareConcurrency() : requested;
}

ThreadPool::ThreadPool(uint32_t num_workers) {
  workers_.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this);
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunTask(const std::function<void()>& task) {
  try {
    task();
  } catch (...) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    RunTask(task);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Drain the queue even when stopping so submitted work always runs.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    RunTask(task);
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace exec
}  // namespace crowder

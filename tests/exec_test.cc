// ThreadPool and parallel-loop correctness: task completion, exception
// propagation to the caller, deterministic output ordering regardless of
// scheduling, nested-submit safety, and a tiny-chunk stress case. These are
// the contracts parallel_join.cc and the machine pass build on; the
// ThreadSanitizer CI job runs this binary to catch data races the assertions
// can't see.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/parallel.h"
#include "exec/thread_pool.h"

namespace crowder {
namespace exec {
namespace {

TEST(HardwareConcurrencyTest, NeverZeroAndHonorsEnvOverride) {
  EXPECT_GE(HardwareConcurrency(), 1u);

  ::setenv("CROWDER_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(HardwareConcurrency(), 3u);
  EXPECT_EQ(ResolveNumThreads(0), 3u);
  EXPECT_EQ(ResolveNumThreads(7), 7u);  // explicit counts win over the env

  ::setenv("CROWDER_THREADS", "not-a-number", 1);
  EXPECT_GE(HardwareConcurrency(), 1u);  // invalid values fall back
  ::setenv("CROWDER_THREADS", "0", 1);
  EXPECT_GE(HardwareConcurrency(), 1u);  // zero is not a pinnable count

  ::unsetenv("CROWDER_THREADS");
  EXPECT_GE(ResolveNumThreads(0), 1u);
}

TEST(HardwareConcurrencyTest, HostileEnvValuesResolveToTheHardwareCount) {
  // Only HardwareConcurrency() is called: no pool is created, so an
  // accepted huge value could not start threads here either.
  const char* saved = std::getenv("CROWDER_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  ::unsetenv("CROWDER_THREADS");
  const uint32_t hardware = HardwareConcurrency();
  for (const char* value : {"0", "-1", "4097", "100000", "99999999999", "18446744073709551616",
                            "-4294967295", "1e3", "4.0", "+4", " 4", "4 ", "4x", "0x10", ""}) {
    ::setenv("CROWDER_THREADS", value, /*overwrite=*/1);
    EXPECT_EQ(HardwareConcurrency(), hardware) << "CROWDER_THREADS='" << value << "'";
  }
  ::setenv("CROWDER_THREADS", "1", 1);
  EXPECT_EQ(HardwareConcurrency(), 1u);
  ::setenv("CROWDER_THREADS", "4096", 1);
  EXPECT_EQ(HardwareConcurrency(), kMaxThreads);
  if (saved != nullptr) {
    ::setenv("CROWDER_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("CROWDER_THREADS");
  }
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  int ran = 0;
  pool.Submit([&ran] { ran = 1; });
  EXPECT_EQ(ran, 1);  // ran synchronously, before WaitIdle
  pool.WaitIdle();
}

TEST(ThreadPoolTest, TaskExceptionPropagatesToWaitIdle) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.WaitIdle(), std::runtime_error);
  // The error slot is consumed: the pool is reusable afterwards.
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, NestedSubmitIsSafe) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&pool, &count] {
      pool.Submit([&count] { count.fetch_add(1); });
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  ParallelFor(&pool, 0, kN, /*chunk_size=*/7,
              [&visits](size_t i) { visits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsSerially) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 3, 10, 2, [&order](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{3, 4, 5, 6, 7, 8, 9}));
}

TEST(ParallelForTest, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  ParallelFor(&pool, 5, 5, 4, [](size_t) { FAIL() << "must not be called"; });
  ParallelFor(&pool, 7, 3, 4, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelForTest, LowestChunkExceptionWinsDeterministically) {
  ThreadPool pool(4);
  // Several chunks throw; the rethrown exception must always come from the
  // lowest-indexed failing chunk (index 10, chunk 1 at chunk_size 10),
  // regardless of which thread hit which chunk first.
  for (int attempt = 0; attempt < 20; ++attempt) {
    try {
      ParallelFor(&pool, 0, 100, 10, [](size_t i) {
        if (i % 10 == 0 && i > 0) {
          throw std::runtime_error("chunk " + std::to_string(i / 10));
        }
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 1");
    }
  }
}

TEST(ParallelMapTest, OutputOrderingIsDeterministic) {
  ThreadPool pool(4);
  constexpr size_t kN = 5000;
  const std::function<int(size_t)> fn = [](size_t i) {
    return static_cast<int>(i * 2654435761u % 1000);
  };
  std::vector<int> serial(kN);
  for (size_t i = 0; i < kN; ++i) serial[i] = fn(i);
  for (size_t chunk_size : {1, 3, 64, 5000, 100000}) {
    const std::vector<int> parallel = ParallelMap<int>(&pool, kN, chunk_size, fn);
    ASSERT_EQ(parallel, serial) << "chunk_size " << chunk_size;
  }
}

TEST(ParallelReduceTest, ConcatenatesShardsInChunkOrder) {
  ThreadPool pool(4);
  constexpr size_t kN = 2000;
  // Each index emits a variable number of elements; concatenation in chunk
  // order must reproduce the serial emission sequence exactly.
  const std::function<void(size_t, std::vector<int>*)> emit =
      [](size_t i, std::vector<int>* out) {
        for (size_t k = 0; k <= i % 3; ++k) {
          out->push_back(static_cast<int>(i * 10 + k));
        }
      };
  std::vector<int> serial;
  for (size_t i = 0; i < kN; ++i) emit(i, &serial);
  for (size_t chunk_size : {1, 13, 256}) {
    const std::vector<int> parallel = ParallelReduce<int>(&pool, kN, chunk_size, emit);
    ASSERT_EQ(parallel, serial) << "chunk_size " << chunk_size;
  }
}

TEST(ParallelForTest, NestedParallelRegionsDoNotDeadlock) {
  // An outer parallel loop whose body runs an inner one on the same pool:
  // the chunk-claiming scheme must let busy callers drain their own chunks
  // instead of waiting for occupied workers.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  ParallelFor(&pool, 0, 8, 1, [&pool, &total](size_t) {
    ParallelFor(&pool, 0, 16, 2, [&total](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ParallelForTest, TinyChunkStress) {
  // Chunk size 1 over a large range with a pool bigger than the hardware:
  // maximal scheduling churn, still exactly-once semantics and a correct sum.
  ThreadPool pool(7);
  constexpr size_t kN = 50000;
  std::atomic<long long> sum{0};
  ParallelFor(&pool, 0, kN, 1,
              [&sum](size_t i) { sum.fetch_add(static_cast<long long>(i)); });
  EXPECT_EQ(sum.load(), static_cast<long long>(kN) * (kN - 1) / 2);
}

}  // namespace
}  // namespace exec
}  // namespace crowder

// Outside-in span recorder for the benchmark harness.
//
// Spans are opened around calls into the library's public functions from
// the harness's own code (nothing inside src/ is instrumented). Each span
// records its name, start, end, parent span and the run id current when it
// opened; spans are held in memory and written once, at exit, as Chrome
// trace-event JSON — plain text that ui.perfetto.dev and chrome://tracing
// open directly. A disabled tracer records nothing and reads no clock, so
// the untraced repetitions that feed the end-to-end metrics pay only a
// branch per span.
#ifndef CROWDER_BENCHMARK_TRACE_H_
#define CROWDER_BENCHMARK_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace crowder {
namespace bench {

class Tracer {
 public:
  /// Parent argument meaning "the innermost span open on this thread".
  static constexpr int64_t kInheritParent = -2;
  /// Parent id of a root span.
  static constexpr int64_t kNoParent = -1;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Run id stamped on every span opened from now on (one per repetition).
  void SetRunId(std::string run_id);

  /// Opens a span on the calling thread and returns its id (-1 when
  /// disabled). Spans on one thread must close in reverse opening order.
  int64_t Begin(std::string name, int64_t parent = kInheritParent);
  void End(int64_t id);
  void Rename(int64_t id, std::string name);
  void AddArg(int64_t id, std::string key, double value);

  /// Innermost span open on the calling thread (kNoParent if none) — hand
  /// it to another thread so its spans nest under this one.
  int64_t CurrentSpan() const;

  /// Number of spans recorded so far; pass it to TotalSeconds to sum only
  /// the spans of one repetition.
  size_t Mark() const;
  /// Summed duration of the closed spans called `name` recorded at or
  /// after `since`, in seconds.
  double TotalSeconds(const std::string& name, size_t since) const;

  /// Writes every span as a Chrome trace-event JSON object. Each event
  /// carries span_id, parent_id, run_id and self_us (its duration minus the
  /// part of it covered by its children) besides its own arguments.
  /// `pid` names the process track, so files of several workloads can be
  /// concatenated into one trace.
  Status WriteChromeJson(const std::string& path, const std::string& process_name,
                         int pid) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    int64_t parent = kNoParent;
    uint32_t tid = 0;
    int64_t start_ns = 0;
    int64_t end_ns = -1;  ///< -1 while open
    std::string run_id;
    std::vector<std::pair<std::string, double>> args;
  };

  int64_t NowNs() const;

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::string run_id_;       // guarded by mu_
};

/// \brief RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int64_t parent = Tracer::kInheritParent)
      : tracer_(tracer), id_(tracer->Begin(std::move(name), parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Arg(std::string key, double value) { tracer_->AddArg(id_, std::move(key), value); }
  void Rename(std::string name) { tracer_->Rename(id_, std::move(name)); }
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

}  // namespace bench
}  // namespace crowder

#endif  // CROWDER_BENCHMARK_TRACE_H_

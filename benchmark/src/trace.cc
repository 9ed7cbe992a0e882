#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

namespace crowder {
namespace bench {

namespace {

// Per-thread state: a small dense thread id for the trace's `tid` field and
// the stack of spans this thread has open (the implicit parent).
struct ThreadState {
  uint32_t tid = 0;
  std::vector<int64_t> open;
};
thread_local ThreadState t_state;
std::atomic<uint32_t> g_next_tid{1};

uint32_t ThisTid() {
  if (t_state.tid == 0) t_state.tid = g_next_tid.fetch_add(1);
  return t_state.tid;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Micros(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

}  // namespace

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

void Tracer::SetRunId(std::string run_id) {
  std::lock_guard<std::mutex> lock(mu_);
  run_id_ = std::move(run_id);
}

int64_t Tracer::Begin(std::string name, int64_t parent) {
  if (!enabled_) return -1;
  if (parent == kInheritParent) parent = CurrentSpan();
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.tid = ThisTid();
  span.start_ns = NowNs();
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    span.run_id = run_id_;
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  t_state.open.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }
  auto it = std::find(t_state.open.rbegin(), t_state.open.rend(), id);
  if (it != t_state.open.rend()) t_state.open.erase(std::next(it).base());
}

void Tracer::Rename(int64_t id, std::string name) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].name = std::move(name);
}

void Tracer::AddArg(int64_t id, std::string key, double value) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].args.emplace_back(std::move(key), value);
}

int64_t Tracer::CurrentSpan() const {
  return t_state.open.empty() ? kNoParent : t_state.open.back();
}

size_t Tracer::Mark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double Tracer::TotalSeconds(const std::string& name, size_t since) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total_ns = 0;
  for (size_t i = since; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns >= 0 && s.name == name) total_ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(total_ns) / 1e9;
}

Status Tracer::WriteChromeJson(const std::string& path, const std::string& process_name,
                               int pid) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<size_t>> children(spans_.size());
  std::set<uint32_t> tids;
  for (size_t i = 0; i < spans_.size(); ++i) {
    tids.insert(spans_[i].tid);
    if (spans_[i].parent >= 0) children[static_cast<size_t>(spans_[i].parent)].push_back(i);
  }

  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
      << ",\"args\":{\"name\":" << Quote(process_name) << "}}";
  for (const uint32_t tid : tids) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
        << ",\"args\":{\"name\":" << Quote(tid == 1 ? "harness" : "thread " + std::to_string(tid))
        << "}}";
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t end = s.end_ns >= 0 ? s.end_ns : s.start_ns;
    // Self time: the span's duration minus the union of its children's
    // intervals clipped to it (children on other threads may overlap).
    std::vector<std::pair<int64_t, int64_t>> covered;
    for (const size_t c : children[i]) {
      const int64_t lo = std::max(s.start_ns, spans_[c].start_ns);
      const int64_t hi = std::min(end, spans_[c].end_ns >= 0 ? spans_[c].end_ns : lo);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : covered) {
      if (hi <= reach) continue;
      covered_ns += hi - std::max(lo, reach);
      reach = hi;
    }
    const std::string category = s.name.substr(0, s.name.find('.'));
    out << ",\n{\"name\":" << Quote(s.name) << ",\"cat\":" << Quote(category)
        << ",\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << s.tid
        << ",\"ts\":" << Micros(s.start_ns) << ",\"dur\":" << Micros(end - s.start_ns)
        << ",\"args\":{\"span_id\":" << i << ",\"parent_id\":" << s.parent
        << ",\"run_id\":" << Quote(s.run_id) << ",\"self_us\":" << Micros(end - s.start_ns - covered_ns);
    for (const auto& [key, value] : s.args) out << "," << Quote(key) << ":" << Number(value);
    out << "}}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) return Status::IOError("write to " + path + " failed");
  return Status::OK();
}

}  // namespace bench
}  // namespace crowder

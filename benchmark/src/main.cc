// crowder_benchmark — the repository benchmark's harness. One invocation
// runs one workload (workloads.cc) in this process:
//
//   1. a forked child generates the input from --seed and writes it as CSV
//      (the benchmark's own cost: never timed, and its memory never counts
//      toward peak_rss_mb);
//   2. set-up — loading the CSV, plus creating the service for
//      serve_ingest — gives the dataset the repetitions use;
//   3. one untimed warm-up repetition pins the output digest;
//   4. repetitions run for --seconds (at least three); e2e_s is the median
//      of their times. Before each one, set-up runs kSetupsPerRep more
//      times, so that the set-up samples span the run as the repetitions
//      do; setup_s is their median. Both are scaled to a reference host
//      speed (HostSpeed, below).
//      With --trace FILE, the first half of the time runs untraced and the
//      second half traced, the per-layer metrics are medians over the
//      traced repetitions (serve latency quantiles: over all of them), and
//      every span is written to FILE as Chrome trace-event JSON;
//   5. the output is checked: every repetition reproduces the warm-up
//      digest, the cross-route reference (if the workload has one) matches,
//      and so does the digest pinned in --digests for this seed.
//
// It prints `workload metric value unit` lines, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}, and exits 0
// only if the output was correct.
//
//   crowder_benchmark --workload NAME --seconds S [--seed N] [--trace FILE]
//                     [--scale F] [--work DIR] [--digests FILE] [--out FILE]
//
// Every workload computes on one thread (kThreads); serve_ingest adds a
// query thread and the service's own round and delivery threads.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "trace.h"
#include "workloads.h"

#ifndef CROWDER_BENCH_BUILD_TYPE
#define CROWDER_BENCH_BUILD_TYPE "unknown"
#endif

namespace crowder {
namespace bench {
namespace {

// Set-up takes 10-30 ms, against 0.4-0.7 s per repetition. Host speed
// shifts every few seconds, so back-to-back samples mostly land in one
// stretch and their median jumps between runs; samples taken between the
// repetitions span the run as the repetitions do.
constexpr int kSetupsPerRep = 3;
constexpr size_t kMinReps = 3;

// On a shared host, neighbours slow the same repetition by up to half again
// for minutes at a time, longer than a run, so no statistic over one run
// removes it. Before each repetition and its set-ups, the harness times a
// fixed kernel of its own (HostKernelSeconds) and scales every sample by
// kReferenceKernelSeconds / that time: e2e_s and setup_s are seconds on a
// host that runs the kernel in kReferenceKernelSeconds, about its time in
// the quiet stretches of a 4-vCPU Xeon (Sapphire Rapids, 2.1 GHz) KVM guest
// shared with other guests (busy stretches: up to 0.037 s).
constexpr double kReferenceKernelSeconds = 0.025;

volatile uint64_t g_kernel_sink = 0;

// Sorts 256K random keys and makes a branchy pass over 64K of them: the
// compare-and-branch, cache-bound work the library's joins and HIT
// generators do, in code no change to the library touches.
double HostKernelSeconds() {
  static const std::vector<uint32_t> kKeys = [] {
    std::vector<uint32_t> keys(1u << 18);
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint32_t& k : keys) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = static_cast<uint32_t>(x);
    }
    return keys;
  }();
  std::vector<uint32_t> keys = kKeys;
  WallTimer timer;
  std::sort(keys.begin(), keys.end());
  uint64_t acc = keys[keys.size() / 2];
  for (int pass = 0; pass < 20; ++pass) {
    for (size_t i = 0; i < (1u << 16); ++i) {
      const uint32_t k = kKeys[i];
      if (k & 1) {
        acc += k;
      } else {
        acc ^= k >> 3;
      }
      if (k & 4) acc *= 3;
    }
  }
  g_kernel_sink = acc;
  return timer.ElapsedSeconds();
}

// Factor that converts a time measured now to reference-host seconds.
double HostSpeed() { return kReferenceKernelSeconds / HostKernelSeconds(); }

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  double seconds = -1.0;  // required
  std::string trace;
  double scale = 1.0;
  std::string work = ".";
  std::string digests;
  std::string out;
};

int Usage() {
  std::cerr << "usage: crowder_benchmark --workload NAME --seconds S [--seed N] "
               "[--trace FILE] [--scale F] [--work DIR] [--digests FILE] [--out FILE]\n"
               "workloads:";
  for (const Workload& w : Workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

Result<Flags> Parse(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument(key + " needs a value");
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        flags.workload = value;
      } else if (key == "--seed") {
        if (value.empty() || value[0] == '-') {
          return Status::InvalidArgument("--seed must be >= 0");
        }
        flags.seed = std::stoull(value);
      } else if (key == "--seconds") {
        flags.seconds = std::stod(value);
      } else if (key == "--trace") {
        flags.trace = value;
      } else if (key == "--scale") {
        flags.scale = std::stod(value);
      } else if (key == "--work") {
        flags.work = value;
      } else if (key == "--digests") {
        flags.digests = value;
      } else if (key == "--out") {
        flags.out = value;
      } else {
        return Status::InvalidArgument("unknown flag " + key);
      }
    } catch (const std::exception&) {
      return Status::InvalidArgument("bad value '" + value + "' for " + key);
    }
  }
  if (FindWorkload(flags.workload) == nullptr) {
    return Status::InvalidArgument("unknown workload '" + flags.workload + "'");
  }
  if (!(flags.seconds >= 0.0) || !(flags.scale > 0.0)) {
    return Status::InvalidArgument("--seconds S >= 0 is required, and --scale must be > 0");
  }
  return flags;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

// CPU seconds of this process, all threads.
double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6 + usage.ru_stime.tv_sec +
         usage.ru_stime.tv_usec / 1e6;
}

// Peak resident set size since the last ResetPeakRss, MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Lowers the peak-RSS mark to the current RSS (Linux clear_refs), so the
// next PeakRssMb reading covers one repetition.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

// Generates the input in a child process, so neither its time nor its
// memory is charged to the measured process.
Status GenerateCsv(const Workload& workload, uint64_t seed, double scale,
                   const std::string& path) {
  std::cout.flush();
  std::cerr.flush();
  const pid_t pid = fork();
  if (pid < 0) return Status::IOError("fork failed");
  if (pid == 0) {
    Result<data::Dataset> dataset = workload.generate(seed, scale);
    const Status status =
        dataset.ok() ? data::WriteDatasetCsv(*dataset, path) : dataset.status();
    if (!status.ok()) std::cerr << "generate: " << status.ToString() << "\n";
    std::cerr.flush();
    _exit(status.ok() ? 0 : 1);
  }
  int wstatus = 0;
  while (waitpid(pid, &wstatus, 0) < 0) {
    if (errno != EINTR) return Status::IOError("waitpid failed");
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("generating the input for " + std::string(workload.name) +
                            " failed");
  }
  return Status::OK();
}

// The digest pinned for (workload, seed) in `path` — lines of
// `workload seed hex-digest`; 0 when none is listed.
Result<uint64_t> PinnedDigest(const std::string& path, const std::string& workload,
                              uint64_t seed) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    uint64_t pinned_seed = 0;
    uint64_t digest = 0;
    if (!(fields >> name >> pinned_seed >> std::hex >> digest)) {
      return Status::InvalidArgument(path + ": bad line '" + line + "'");
    }
    if (name == workload && pinned_seed == seed) return digest;
  }
  return uint64_t{0};
}

std::string Hex(uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

struct SetupTimes {
  std::vector<double> load_s;   // data::ReadDatasetCsv, as measured
  std::vector<double> setup_s;  // that plus the workload's own set-up, scaled
};

// One set-up: loads the CSV and runs the workload's own set-up, timing both.
// `speed` is the HostSpeed measured just before.
Result<data::Dataset> SetUp(const Workload& workload, const std::string& csv,
                            const RunOptions& options, double speed, SetupTimes* times) {
  WallTimer timer;
  CROWDER_ASSIGN_OR_RETURN(data::Dataset dataset, data::ReadDatasetCsv(csv, workload.name));
  times->load_s.push_back(timer.ElapsedSeconds());
  if (workload.setup != nullptr) CROWDER_RETURN_NOT_OK(workload.setup(dataset, options));
  times->setup_s.push_back(timer.ElapsedSeconds() * speed);
  return dataset;
}

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Fail(const std::string& what) {
    correct = false;
    std::cerr << "FAILED: " << what << "\n";
  }
};

// Runs repetitions until `seconds` have passed and at least kMinReps ran,
// each preceded by a host-speed reading and kSetupsPerRep timed set-ups
// whose results are dropped. Each repetition is one root span named after
// the workload.
Status RunReps(const Workload& workload, const std::string& csv, const data::Dataset& dataset,
               const RunOptions& options, Tracer* tracer, double seconds,
               uint64_t expected_digest, SetupTimes* setup, std::vector<RepResult>* reps,
               Outcome* outcome) {
  WallTimer phase;
  while (reps->size() < kMinReps || phase.ElapsedSeconds() < seconds) {
    const double speed = HostSpeed();
    for (int i = 0; i < kSetupsPerRep; ++i) {
      CROWDER_RETURN_NOT_OK(SetUp(workload, csv, options, speed, setup).status());
    }
    tracer->SetRunId(std::string(workload.name) + "/seed" + std::to_string(options.seed) +
                     "/rep" + std::to_string(reps->size()));
    const size_t mark = tracer->Mark();
    ResetPeakRss();
    const double cpu_before = CpuSeconds();
    Result<RepResult> rep = [&] {
      ScopedSpan root(tracer, workload.name, Tracer::kNoParent);
      return workload.run(dataset, options, tracer);
    }();
    const double cpu_s = CpuSeconds() - cpu_before;
    const double peak_rss_mb = PeakRssMb();
    if (!rep.ok()) {
      outcome->attempted += 1;
      outcome->failed += 1;
      outcome->Fail(std::string(workload.name) + ": " + rep.status().ToString());
      return Status::OK();
    }
    outcome->attempted += rep->operations;
    outcome->failed += rep->failed_operations;
    if (rep->digest != expected_digest) {
      outcome->Fail(std::string(workload.name) + ": repetition digest " + Hex(rep->digest) +
                    " differs from the warm-up's " + Hex(expected_digest));
    }
    rep->peak_rss_mb = peak_rss_mb;
    rep->host_speed = speed;
    rep->layer["proc.cpu_s"] = cpu_s;
    rep->layer["proc.cpu_util"] = cpu_s / rep->e2e_s;
    if (tracer->enabled()) {
      for (const auto& [metric, span] : SpanMetrics()) {
        rep->layer[metric] = tracer->TotalSeconds(span, mark);
      }
    }
    reps->push_back(std::move(*rep));
  }
  return Status::OK();
}

std::vector<double> Collect(const std::vector<RepResult>& reps, double RepResult::*field) {
  std::vector<double> out;
  for (const RepResult& r : reps) out.push_back(r.*field);
  return out;
}

// Median e2e time of `reps` in reference-host seconds.
double ScaledE2e(const std::vector<RepResult>& reps) {
  std::vector<double> out;
  for (const RepResult& r : reps) out.push_back(r.e2e_s * r.host_speed);
  return Median(out);
}

// Median over `reps` of every per-layer metric (0 for a layer the workload
// does not use).
std::map<std::string, double> LayerValues(const std::vector<RepResult>& reps) {
  std::map<std::string, double> values;
  for (const MetricSpec& m : LayerMetrics()) {
    std::vector<double> samples;
    for (const RepResult& r : reps) {
      auto it = r.layer.find(m.name);
      if (it != r.layer.end()) samples.push_back(it->second);
    }
    values[m.name] = Median(samples);
  }
  return values;
}

// Latency quantiles from the histograms of every repetition of the run,
// traced or not, so that p999 rests on at least ten samples beyond it.
void SetLatencyQuantiles(const std::vector<RepResult>& untraced,
                         const std::vector<RepResult>& traced,
                         std::map<std::string, double>* values) {
  Histogram insert_us, query_us;
  for (const auto* reps : {&untraced, &traced}) {
    for (const RepResult& r : *reps) {
      insert_us.Merge(r.insert_us);
      query_us.Merge(r.query_us);
    }
  }
  const std::pair<std::string, const Histogram*> kinds[] = {{"serve.insert_", &insert_us},
                                                            {"serve.query_", &query_us}};
  for (const auto& [prefix, h] : kinds) {
    if (h->count() == 0) continue;
    (*values)[prefix + "p50_us"] = static_cast<double>(h->ValueAtQuantile(0.5));
    (*values)[prefix + "p99_us"] = static_cast<double>(h->ValueAtQuantile(0.99));
    (*values)[prefix + "p999_us"] = static_cast<double>(h->ValueAtQuantile(0.999));
  }
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

Result<int> Run(const Flags& flags) {
  const Workload& workload = *FindWorkload(flags.workload);
  RunOptions options;
  options.seed = flags.seed;
  const double scale = workload.scale * flags.scale;
  const bool traced = !flags.trace.empty();

  const std::string csv = flags.work + "/" + workload.name + "-seed" +
                          std::to_string(flags.seed) + "-scale" + std::to_string(scale) +
                          ".csv";
  CROWDER_RETURN_NOT_OK(GenerateCsv(workload, flags.seed, scale, csv));

  SetupTimes setup;
  CROWDER_ASSIGN_OR_RETURN(const data::Dataset dataset,
                           SetUp(workload, csv, options, HostSpeed(), &setup));

  Tracer off(false);
  Tracer on(traced);
  CROWDER_ASSIGN_OR_RETURN(const RepResult warmup, workload.run(dataset, options, &off));
  Outcome outcome;
  std::vector<RepResult> untraced, traced_reps;
  CROWDER_RETURN_NOT_OK(RunReps(workload, csv, dataset, options, &off,
                                traced ? flags.seconds / 2 : flags.seconds, warmup.digest,
                                &setup, &untraced, &outcome));
  if (traced && outcome.correct) {
    CROWDER_RETURN_NOT_OK(RunReps(workload, csv, dataset, options, &on, flags.seconds / 2,
                                  warmup.digest, &setup, &traced_reps, &outcome));
  }
  std::remove(csv.c_str());

  // Output checks.
  if (workload.reference != nullptr) {
    Result<uint64_t> reference = workload.reference(dataset, options);
    if (!reference.ok()) {
      outcome.Fail(std::string(workload.name) + " reference: " + reference.status().ToString());
    } else if (*reference != warmup.digest) {
      outcome.Fail(std::string(workload.name) + ": digest " + Hex(warmup.digest) +
                   " differs from the cross-route reference " + Hex(*reference));
    }
  }
  if (!flags.digests.empty() && flags.scale == 1.0) {
    CROWDER_ASSIGN_OR_RETURN(const uint64_t pinned,
                             PinnedDigest(flags.digests, workload.name, flags.seed));
    if (pinned != 0 && pinned != warmup.digest) {
      outcome.Fail(std::string(workload.name) + " seed " + std::to_string(flags.seed) +
                   ": digest " + Hex(warmup.digest) + " differs from the pinned " + Hex(pinned));
    }
  }

  std::vector<std::pair<MetricSpec, double>> metrics;
  if (!traced) {
    metrics = {{{"e2e_s", "s"}, ScaledE2e(untraced)},
               {{"setup_s", "s"}, Median(setup.setup_s)},
               {{"peak_rss_mb", "MB"}, Median(Collect(untraced, &RepResult::peak_rss_mb))}};
  } else {
    std::map<std::string, double> values = LayerValues(traced_reps);
    // Tracing-free readings: load time from set-up, CPU from the untraced
    // half, and the traced half's slowdown against it.
    const std::map<std::string, double> untraced_values = LayerValues(untraced);
    values["data.load_s"] = Median(setup.load_s);
    values["proc.cpu_s"] = untraced_values.at("proc.cpu_s");
    values["proc.cpu_util"] = untraced_values.at("proc.cpu_util");
    SetLatencyQuantiles(untraced, traced_reps, &values);
    values["trace.overhead_frac"] = ScaledE2e(traced_reps) / ScaledE2e(untraced) - 1.0;
    for (const MetricSpec& m : LayerMetrics()) metrics.push_back({m, values[m.name]});
    const int pid = static_cast<int>(&workload - Workloads().data()) + 1;
    CROWDER_RETURN_NOT_OK(
        on.WriteChromeJson(flags.trace, "crowder_benchmark " + flags.workload, pid));
  }

  std::cout << "# crowder_benchmark workload=" << workload.name << " seed=" << flags.seed
            << " scale=" << scale << " records=" << dataset.table.num_records()
            << " threads=" << kThreads << " build=" << CROWDER_BENCH_BUILD_TYPE
            << " reps=" << untraced.size()
            << (traced ? "+" + std::to_string(traced_reps.size()) + " traced" : "")
            << " digest=" << Hex(warmup.digest)
            << " host_speed=" << Median(Collect(untraced, &RepResult::host_speed))
            << " e2e_measured_s=" << Median(Collect(untraced, &RepResult::e2e_s)) << "\n";
  for (const auto& [spec, value] : metrics) {
    std::cout << workload.name << " " << spec.name << " " << value << " " << spec.unit << "\n";
  }
  std::string json = "{\"correct\": " + std::string(outcome.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += std::string(i == 0 ? "" : ", ") + "\"" + metrics[i].first.name +
            "\": {\"value\": " + JsonNumber(metrics[i].second) + ", \"unit\": \"" +
            metrics[i].first.unit + "\"}";
  }
  json += "}}";
  if (!flags.out.empty()) {
    std::ofstream out(flags.out);
    out << json << "\n";
    if (!out) return Status::IOError("write to " + flags.out + " failed");
  }
  std::cout << json << std::endl;
  return outcome.correct ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace crowder

int main(int argc, char** argv) {
  const auto flags = crowder::bench::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status().ToString() << "\n";
    return crowder::bench::Usage();
  }
  const auto code = crowder::bench::Run(*flags);
  if (!code.ok()) {
    std::cerr << "error: " << code.status().ToString() << "\n";
    return 1;
  }
  return *code;
}

// crowder_cli — command-line front end for the CrowdER library.
//
//   crowder_cli generate --dataset restaurant|product|productdup --out FILE
//                        [--seed N] [--scale F]
//       Writes a synthetic benchmark dataset (records + ground truth) to CSV.
//       --scale multiplies the dataset's record counts while preserving its
//       macro statistics (duplicate/match fractions) — e.g. --scale 25 grows
//       Product to ~54k records, --scale 46 past 100k.
//
//   crowder_cli run --in FILE [--threshold 0.3] [--k 10]
//                   [--hit-type cluster|pair] [--qt] [--seed N]
//                   [--threads N] [--streaming]
//                   [--memory-budget SIZE] [--partition-pairs N]
//                   [--crowd sim|record:FILE|replay:FILE]
//                   [--spammer-fraction F] [--colluder-fraction F]
//                   [--sleeper-fraction F] [--filter-workers] [--async-crowd]
//                   [--select fixed|adaptive]
//                   [--shards N] [--shardd PATH]
//                   [--machine-only] [--matches OUT.csv] [--merged OUT.csv]
//       Runs the full hybrid workflow (simulated crowd) on a dataset CSV
//       produced by `generate` (or any CSV with __source/__entity columns),
//       prints the quality/cost/latency report, and optionally writes the
//       confirmed matches and the deduplicated table. Cluster-based HITs
//       come from the two-tiered generator. --threads parallelizes the
//       machine pass and the crowd simulation (0 = all hardware threads,
//       honoring CROWDER_THREADS; default 1 = serial); results are
//       identical at any value. Every run takes the same partitioned path:
//       the candidate pairs flow through a spillable stream and the crowd
//       boundary (HIT generation, crowd simulation, vote table,
//       aggregation) runs one pair partition at a time. --streaming bounds
//       it: --memory-budget caps each bounded structure's resident bytes
//       (suffixes K/M/G, upper- or lowercase, e.g. 256M or 256m) before it
//       spills to disk, and --partition-pairs pins the crowd partition
//       capacity (0/absent = derived from the budget), so the full pair
//       list / pair graph / vote table are never resident; entity
//       clustering switches to the streaming union-find resolver (pure
//       transitive closure — the cross-support merge guard of the default
//       report needs the full confirmed edge set, so the cluster report is
//       labeled with which rule produced it). The workflow outputs —
//       candidate pairs, HITs, votes, ranked matches, F1 — are
//       byte-identical to the unbounded run at any setting; only the
//       clustering rule differs, by design. --crowd picks who answers the
//       HITs: `sim` (default) is
//       the deterministic simulator; `record:FILE` simulates AND exports
//       every vote/assignment to a JSONL vote log; `replay:FILE` answers
//       from a recorded log instead of simulating — the ranked output is
//       byte-identical to the recording run. A truncated, corrupt, or
//       mismatched replay log fails with a DataLoss error naming the
//       offending HIT index, and the process exits with the distinct code
//       3 (1 = any other failure, 2 = usage). --machine-only stops after
//       the machine pass and reports pair counts, recall, throughput, and
//       spill statistics. The adversarial knobs recompose the simulated
//       worker pool: --spammer-fraction / --colluder-fraction /
//       --sleeper-fraction displace honest workers (the honest remainder
//       keeps the default reliable:noisy ratio). --filter-workers turns on
//       the between-rounds approval-rate admission filter, whose bans are
//       retroactive at aggregation; --async-crowd delivers the simulator's
//       votes out of order and in partial batches under the arrival-time
//       model. Any of the three adds the crowd-agreement (Fleiss' kappa)
//       line to the report; --filter-workers also reports banned workers.
//       --select picks the question-selection policy (core/question_policy.h):
//       `fixed` (default) asks every candidate pair in HIT order; `adaptive`
//       re-ranks the remaining questions between sub-rounds by expected
//       information gain and skips pairs the answer closure already decides,
//       adding a "question selection" line (pairs asked / inferred) to the
//       report. --shards N (N >= 2) runs the machine pass on the sharded
//       multi-process runtime (src/shard/): the records are banded by
//       blocking key across N crowder_shardd worker processes and the
//       per-shard pair streams are merged back deterministically — the
//       candidate pair list, and therefore every downstream byte (HITs,
//       votes, ranked matches), is identical to the single-process run.
//       --shardd names the worker binary; without it the CLI looks for
//       crowder_shardd next to its own executable and falls back to
//       in-process workers (same bytes, no subprocesses) with a notice.
//       Sharding requires a positive threshold and adds a "shard workers"
//       line to the report. The default report (no such flags) is
//       byte-for-byte unchanged.
//
//   crowder_cli plan --in FILE --budget DOLLARS [--k 10] [--threads N]
//       Evaluates the cost/recall tradeoff across thresholds and recommends
//       an operating point that fits the budget.
//
//   crowder_cli serve-batch --in FILE [--threshold 0.3] [--auto-match F]
//                           [--match-threshold 0.5] [--seed N]
//                           [--report OUT.csv]
//       The serving stack's batch reference (serve::BatchResolve): one
//       AllPairs join over the whole dataset, the per-pair-seeded crowd,
//       transitive closure. Its `record,cluster` report (--report) is
//       bitwise what crowder_serve / crowder_bench_serve produce for the
//       same data and config — the smoke chain compares the files.
//
// Every subcommand rejects a flag its usage text does not list (exit 2),
// and a numeric flag whose whole value is not a finite number in range
// (exit 1, naming the flag).
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "core/crowder.h"
#include "dataset_flags.h"
#include "flags.h"
#include "serve/service.h"
#include "service_flags.h"

namespace crowder {
namespace cli {
namespace {

using tools::Args;
using tools::CommandFlags;

const std::map<std::string, CommandFlags>& KnownFlags() {
  static const std::map<std::string, CommandFlags> flags = {
      {"generate", {{"dataset", "out", "seed", "scale"}, {}}},
      {"run",
       {{"in", "threshold", "k", "hit-type", "seed", "threads", "memory-budget",
         "partition-pairs", "crowd", "spammer-fraction", "colluder-fraction",
         "sleeper-fraction", "select", "shards", "shardd", "matches", "merged"},
        {"qt", "streaming", "filter-workers", "async-crowd", "machine-only"}}},
      {"plan", {{"in", "budget", "k", "threads"}, {}}},
      {"serve-batch",
       {{"in", "threshold", "auto-match", "match-threshold", "seed", "report"}, {}}},
  };
  return flags;
}

Result<Args> Parse(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  const auto known = KnownFlags().find(argv[1]);
  if (known == KnownFlags().end()) {
    return Status::InvalidArgument("unknown command '" + std::string(argv[1]) + "'");
  }
  return tools::ParseFlags(known->first, known->second, argc, argv, 2);
}

/// --threads: a bounded count (0 = CROWDER_THREADS or the hardware count).
Result<uint32_t> GetThreads(const Args& args) {
  return args.GetNumber<uint32_t>("threads", 1, 0, exec::kMaxThreads);
}

int Usage() {
  std::cerr <<
      R"(usage:
  crowder_cli generate --dataset restaurant|product|productdup --out FILE [--seed N]
                       [--scale F]
  crowder_cli run --in FILE [--threshold 0.3] [--k 10] [--hit-type cluster|pair]
                  [--qt] [--seed N] [--threads N]
                  [--streaming] [--memory-budget SIZE(K|M|G, either case)]
                  [--partition-pairs N] [--crowd sim|record:FILE|replay:FILE]
                  [--spammer-fraction F] [--colluder-fraction F]
                  [--sleeper-fraction F] [--filter-workers] [--async-crowd]
                  [--select fixed|adaptive] [--shards N] [--shardd PATH]
                  [--machine-only] [--matches OUT.csv] [--merged OUT.csv]
  crowder_cli plan --in FILE --budget DOLLARS [--k 10] [--threads N]
  crowder_cli serve-batch --in FILE [--threshold 0.3] [--auto-match F]
                          [--match-threshold 0.5] [--seed N] [--report OUT.csv]
)";
  return 2;
}

Status Generate(const Args& args) {
  const std::string kind = args.Get("dataset", "");
  const std::string out = args.Get("out", "");
  if (kind.empty() || out.empty()) {
    return Status::InvalidArgument("generate requires --dataset and --out");
  }
  CROWDER_ASSIGN_OR_RETURN(const data::Dataset dataset,
                           tools::GenerateDatasetFromFlags(kind, args));
  CROWDER_RETURN_NOT_OK(data::WriteDatasetCsv(dataset, out));
  std::cout << "wrote " << dataset.table.num_records() << " records ("
            << dataset.CountMatchingPairs() << " matching pairs) to " << out << "\n";
  return Status::OK();
}

/// Where `--shards N` looks for the worker binary when --shardd is absent:
/// crowder_shardd next to this executable (the build and the install lay the
/// tools out side by side). Empty when that can't be resolved or the file is
/// not executable — the caller falls back to in-process workers.
std::string DefaultShardWorkerPath() {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len <= 0) return "";
  buf[len] = '\0';
  std::string self(buf);
  const std::size_t slash = self.find_last_of('/');
  if (slash == std::string::npos) return "";
  std::string candidate = self.substr(0, slash + 1) + "crowder_shardd";
  if (::access(candidate.c_str(), X_OK) != 0) return "";
  return candidate;
}

/// The sharded report line, printed by both the full workflow and
/// --machine-only — and only when --shards >= 2, so the default report's
/// bytes stay golden-stable.
void PrintShardReport(const crowder::shard::ShardRunStats& stats) {
  uint64_t verifications = 0;
  for (const auto& shard : stats.shards) verifications += shard.pair_verifications;
  std::cout << "shard workers:      " << stats.shards.size() << " ("
            << (stats.subprocess ? "subprocess" : "in-process") << "; "
            << WithThousands(verifications) << " verifications; plan "
            << FormatDouble(stats.plan_wall_ms, 1) << "ms, ship "
            << FormatDouble(stats.ship_wall_ms, 1) << "ms, gather "
            << FormatDouble(stats.gather_wall_ms, 1) << "ms)\n";
}

std::string FormatBytes(uint64_t bytes) {
  if (bytes >= (1ULL << 30)) {
    return FormatDouble(static_cast<double>(bytes) / (1 << 30), 1) + " GiB";
  }
  if (bytes >= (1ULL << 20)) {
    return FormatDouble(static_cast<double>(bytes) / (1 << 20), 1) + " MiB";
  }
  if (bytes >= (1ULL << 10)) {
    return FormatDouble(static_cast<double>(bytes) / (1 << 10), 1) + " KiB";
  }
  return std::to_string(bytes) + " B";
}

/// The machine pass alone (`run --machine-only`): with --streaming the
/// candidate pairs flow through a budgeted PairStream and are never
/// materialized — the bounded-memory path the CI smoke job runs under an
/// address-space cap.
Status RunMachineOnly(const data::Dataset& dataset,
                      const core::WorkflowConfig& config) {
  const uint64_t total_matches = dataset.CountMatchingPairs();
  if (total_matches == 0) {
    return Status::InvalidArgument("dataset has no matching pairs; nothing to resolve");
  }
  const bool streaming = config.execution_mode == core::ExecutionMode::kStreaming;
  const bool sharded = config.num_shards >= 2;
  WallTimer timer;
  uint64_t num_pairs = 0;
  uint64_t candidate_matches = 0;
  uint64_t spilled = 0;
  uint64_t resident = 0;
  shard::ShardRunStats shard_stats;
  if (sharded) {
    // The sharded machine pass always routes through a PairStream (its
    // k-way merge is what restores the global pair order); --streaming
    // just bounds the stream's resident bytes.
    shard::ShardExecOptions exec;
    exec.num_shards = config.num_shards;
    exec.worker_path = config.shard_worker_path;
    core::PairStream stream(streaming ? config.memory_budget_bytes : 0);
    CROWDER_ASSIGN_OR_RETURN(
        const auto stats,
        core::HybridWorkflow::MachinePassSharded(dataset, similarity::SetMeasure::kJaccard,
                                                 config.likelihood_threshold, exec,
                                                 &stream, &shard_stats));
    num_pairs = stats.num_pairs;
    candidate_matches = stats.candidate_matches;
    spilled = stats.spilled_bytes;
    resident = stream.memory_bytes();
  } else if (streaming) {
    core::PairStream stream(config.memory_budget_bytes);
    CROWDER_ASSIGN_OR_RETURN(
        const auto stats,
        core::HybridWorkflow::MachinePassStream(dataset, config.likelihood_threshold,
                                                config.num_threads, &stream));
    num_pairs = stats.num_pairs;
    candidate_matches = stats.candidate_matches;
    spilled = stats.spilled_bytes;
    resident = stream.memory_bytes();
  } else {
    CROWDER_ASSIGN_OR_RETURN(
        const auto pairs,
        core::HybridWorkflow::MachinePass(dataset, similarity::SetMeasure::kJaccard,
                                          config.likelihood_threshold,
                                          core::CandidateStrategy::kAllPairsJoin,
                                          config.num_threads));
    num_pairs = pairs.size();
    candidate_matches = core::internal::CountCandidateMatches(dataset, pairs);
  }
  const double seconds = timer.ElapsedSeconds();
  const double recall =
      static_cast<double>(candidate_matches) / static_cast<double>(total_matches);

  std::cout << "records:            " << dataset.table.num_records() << "\n";
  std::cout << "machine pass:       " << (streaming ? "streaming" : "materialized");
  if (streaming) {
    std::cout << " (budget "
              << (config.memory_budget_bytes == 0 ? std::string("unbounded")
                                                  : FormatBytes(config.memory_budget_bytes))
              << ", resident " << FormatBytes(resident) << ", spilled "
              << FormatBytes(spilled) << ")";
  }
  std::cout << "\n";
  if (sharded) PrintShardReport(shard_stats);
  std::cout << "candidate pairs:    " << WithThousands(num_pairs) << " (machine recall "
            << FormatDouble(100 * recall, 1) << "%)\n";
  std::cout << "machine time:       " << FormatDouble(seconds, 2) << "s ("
            << WithThousands(static_cast<uint64_t>(
                   static_cast<double>(dataset.table.num_records()) / std::max(seconds, 1e-9)))
            << " records/s)\n";
  return Status::OK();
}

Status Run(const Args& args) {
  const std::string in = args.Get("in", "");
  if (in.empty()) return Status::InvalidArgument("run requires --in");

  core::WorkflowConfig config;
  CROWDER_ASSIGN_OR_RETURN(config.likelihood_threshold,
                           args.GetNumber<double>("threshold", 0.3));
  CROWDER_ASSIGN_OR_RETURN(config.cluster_size, args.GetNumber<uint32_t>("k", 10));
  config.pairs_per_hit = config.cluster_size;
  CROWDER_ASSIGN_OR_RETURN(config.seed, args.GetNumber<uint64_t>("seed", 42));
  CROWDER_ASSIGN_OR_RETURN(config.num_threads, GetThreads(args));
  if (args.Has("streaming")) config.execution_mode = core::ExecutionMode::kStreaming;
  if (args.Has("memory-budget")) {
    CROWDER_ASSIGN_OR_RETURN(config.memory_budget_bytes,
                             ParseByteSize(args.Get("memory-budget", "")));
    if (!args.Has("streaming")) {
      std::cerr << "warning: --memory-budget only applies with --streaming; ignored\n";
    }
  }
  if (args.Has("partition-pairs")) {
    CROWDER_ASSIGN_OR_RETURN(config.crowd_partition_pairs,
                             args.GetNumber<uint64_t>("partition-pairs", 0));
    if (!args.Has("streaming")) {
      std::cerr << "warning: --partition-pairs only applies with --streaming; ignored\n";
    }
  }
  config.crowd.qualification_test = args.Has("qt");

  // ---- Adversarial crowd composition & defenses (crowd/crowd_model.h,
  // crowd/worker_filter.h). The requested adversarial mass displaces honest
  // workers proportionally: the honest remainder keeps the default model's
  // reliable:noisy ratio, and whatever the colluder/sleeper flags don't
  // claim of the adversarial mass becomes independent spammers.
  const bool adversarial = args.Has("spammer-fraction") || args.Has("colluder-fraction") ||
                           args.Has("sleeper-fraction");
  if (adversarial) {
    CROWDER_ASSIGN_OR_RETURN(const double spammer,
                             args.GetNumber<double>("spammer-fraction", 0.0, 0.0, 1.0));
    CROWDER_ASSIGN_OR_RETURN(const double colluder,
                             args.GetNumber<double>("colluder-fraction", 0.0, 0.0, 1.0));
    CROWDER_ASSIGN_OR_RETURN(const double sleeper,
                             args.GetNumber<double>("sleeper-fraction", 0.0, 0.0, 1.0));
    if (spammer + colluder + sleeper > 1.0) {
      return Status::InvalidArgument("adversarial fractions must sum to <= 1");
    }
    const double honest = 1.0 - (spammer + colluder + sleeper);
    const crowd::CrowdModel defaults;
    const double honest_default = defaults.reliable_fraction + defaults.noisy_fraction;
    config.crowd.reliable_fraction = honest * defaults.reliable_fraction / honest_default;
    config.crowd.noisy_fraction = honest * defaults.noisy_fraction / honest_default;
    config.crowd.colluder_fraction = colluder;
    config.crowd.sleeper_fraction = sleeper;
    // The spammer fraction is the unallocated remainder of the pool
    // bucketing, which is exactly `spammer` by construction.
  }
  config.filter_workers = args.Has("filter-workers");
  config.async_crowd = args.Has("async-crowd");

  const std::string select = args.Get("select", "fixed");
  if (select == "adaptive") {
    config.question_policy = core::QuestionPolicyKind::kInferenceOrdered;
  } else if (select != "fixed") {
    return Status::InvalidArgument("unknown --select '" + select +
                                   "' (use fixed or adaptive)");
  }

  if (args.Has("shards")) {
    CROWDER_ASSIGN_OR_RETURN(config.num_shards, args.GetNumber<uint32_t>("shards", 0, 1, 1024));
    config.shard_worker_path = args.Get("shardd", "");
    if (config.num_shards >= 2 && config.shard_worker_path.empty()) {
      config.shard_worker_path = DefaultShardWorkerPath();
      if (config.shard_worker_path.empty()) {
        std::cerr << "warning: crowder_shardd not found next to crowder_cli; "
                     "running shard workers in-process (same output, no "
                     "subprocesses) — pass --shardd PATH to override\n";
      }
    }
  } else if (args.Has("shardd")) {
    std::cerr << "warning: --shardd only applies with --shards; ignored\n";
  }

  const std::string hit_type = args.Get("hit-type", "cluster");
  if (hit_type == "pair") {
    config.hit_type = core::HitType::kPairBased;
  } else if (hit_type != "cluster") {
    return Status::InvalidArgument("unknown --hit-type '" + hit_type + "'");
  }
  // Who answers the HITs (crowd/backend.h): the simulator, the simulator
  // teeing into a vote log, or a recorded log replayed.
  const std::string crowd_mode = args.Get("crowd", "sim");
  if (crowd_mode != "sim" && !StartsWith(crowd_mode, "record:") &&
      !StartsWith(crowd_mode, "replay:")) {
    return Status::InvalidArgument("unknown --crowd mode '" + crowd_mode +
                                   "' (use sim, record:FILE, or replay:FILE)");
  }

  // After full flag validation, so a typo'd --hit-type fails the same way
  // with or without --machine-only, and before any work on the dataset.
  CROWDER_ASSIGN_OR_RETURN(data::Dataset dataset, data::ReadDatasetCsv(in, in));
  if (args.Has("machine-only")) {
    if (args.Has("matches") || args.Has("merged")) {
      std::cerr << "warning: --matches/--merged need the full workflow; "
                   "ignored with --machine-only\n";
    }
    if (crowd_mode != "sim") {
      std::cerr << "warning: --crowd needs the full workflow; ignored with --machine-only\n";
    }
    CROWDER_RETURN_NOT_OK(core::ValidateWorkflowConfig(config));
    return RunMachineOnly(dataset, config);
  }

  core::HybridWorkflow workflow(config);
  std::unique_ptr<crowd::VoteLogWriter> log_writer;
  std::unique_ptr<crowd::CrowdBackend> backend;
  if (config.async_crowd && crowd_mode != "sim") {
    std::cerr << "warning: --async-crowd applies to the simulated crowd only; "
                 "ignored with --crowd " << crowd_mode.substr(0, crowd_mode.find(':'))
              << "\n";
  }
  if (StartsWith(crowd_mode, "record:")) {
    CROWDER_ASSIGN_OR_RETURN(log_writer,
                             crowd::VoteLogWriter::Create(crowd_mode.substr(7)));
    crowd::SimulatedCrowdOptions options;
    options.num_threads = config.num_threads;
    options.tee = log_writer.get();
    CROWDER_ASSIGN_OR_RETURN(backend,
                             crowd::SimulatedCrowdBackend::Create(
                                 config.crowd, config.seed, dataset.truth.entity_of, options));
  } else if (StartsWith(crowd_mode, "replay:")) {
    CROWDER_ASSIGN_OR_RETURN(backend, crowd::RecordedCrowdBackend::Open(crowd_mode.substr(7)));
  }

  core::WorkflowResult result;
  if (backend != nullptr) {
    CROWDER_ASSIGN_OR_RETURN(result, workflow.Run(dataset, backend.get()));
    if (log_writer != nullptr) CROWDER_RETURN_NOT_OK(log_writer->Close());
  } else {
    CROWDER_ASSIGN_OR_RETURN(result, workflow.Run(dataset));
  }

  std::cout << "records:            " << dataset.table.num_records() << "\n";
  if (StartsWith(crowd_mode, "record:")) {
    std::cout << "crowd:              simulated, recorded to " << crowd_mode.substr(7) << "\n";
  } else if (StartsWith(crowd_mode, "replay:")) {
    std::cout << "crowd:              replayed from " << crowd_mode.substr(7) << "\n";
  }
  if (config.execution_mode == core::ExecutionMode::kStreaming) {
    std::cout << "execution:          streaming (budget "
              << (config.memory_budget_bytes == 0 ? std::string("unbounded")
                                                  : FormatBytes(config.memory_budget_bytes))
              << ", stream spill " << FormatBytes(result.pipeline_stats.spilled_bytes)
              << "; crowd partitions " << result.pipeline_stats.crowd_partitions
              << ", vote spill " << FormatBytes(result.pipeline_stats.vote_spilled_bytes)
              << ")\n";
  }
  if (config.num_shards >= 2) PrintShardReport(result.shard_stats);
  std::cout << "candidate pairs:    " << WithThousands(result.num_candidate_pairs)
            << " (machine recall " << FormatDouble(100 * result.machine_recall, 1) << "%)\n";
  // Adaptive-only line, so the default report's bytes stay golden-stable.
  if (config.question_policy == core::QuestionPolicyKind::kInferenceOrdered) {
    std::cout << "question selection: adaptive (" << WithThousands(result.crowd_pairs_asked)
              << " pairs asked, " << WithThousands(result.pairs_inferred) << " inferred)\n";
  }
  std::cout << "HITs:               " << result.crowd_stats.num_hits << " ("
            << (config.hit_type == core::HitType::kPairBased ? "pair-based"
                                                             : "cluster-based, two-tiered")
            << ")\n";
  std::cout << "assignments:        " << result.crowd_stats.num_assignments << " ($"
            << FormatDouble(result.crowd_stats.cost_dollars, 2) << ")\n";
  std::cout << "crowd wall time:    "
            << FormatDouble(result.crowd_stats.total_seconds / 3600.0, 1) << "h\n";
  // The defense report — printed only when an adversarial/defense flag is
  // in play, so the default report's bytes stay golden-stable.
  if ((adversarial || config.filter_workers || config.async_crowd) &&
      !result.crowd_rounds.empty()) {
    double kappa = 0.0;
    uint64_t kappa_votes = 0;
    for (const auto& round : result.crowd_rounds) {
      kappa += round.fleiss_kappa * static_cast<double>(round.num_votes);
      kappa_votes += round.num_votes;
    }
    if (kappa_votes > 0) kappa /= static_cast<double>(kappa_votes);
    std::cout << "crowd agreement:    kappa " << FormatDouble(kappa, 3) << " ("
              << result.crowd_rounds.size() << " round"
              << (result.crowd_rounds.size() == 1 ? "" : "s") << ")\n";
  }
  if (config.filter_workers) {
    std::cout << "filtered workers:   " << result.filtered_workers.size() << " banned ("
              << result.crowd_stats.num_distinct_workers << " workers active)\n";
  }
  std::cout << "best F1:            " << FormatDouble(100 * eval::BestF1(result.pr_curve), 1)
            << "%\n";
  std::cout << "precision@recall90: "
            << FormatDouble(100 * eval::PrecisionAtRecall(result.pr_curve, 0.9), 1) << "%\n";

  core::EntityClusters clusters;
  const char* clustering_label = "verified merges";
  if (config.execution_mode == core::ExecutionMode::kStreaming) {
    // Bounded-memory clustering: the streaming union-find resolver consumes
    // confirmed pairs in batches (here: the ranked list it would otherwise
    // have to hold sorted) — pure transitive closure, O(records) resident.
    clustering_label = "transitive closure";
    const double match_threshold = core::ResolutionOptions{}.match_threshold;
    core::StreamingResolver resolver(static_cast<uint32_t>(dataset.table.num_records()));
    for (const auto& rp : result.ranked) {
      if (rp.score < match_threshold) continue;
      CROWDER_RETURN_NOT_OK(resolver.AddMatch(rp.a, rp.b));
    }
    CROWDER_ASSIGN_OR_RETURN(clusters, resolver.Finish());
  } else {
    CROWDER_ASSIGN_OR_RETURN(
        clusters,
        core::ResolveEntities(static_cast<uint32_t>(dataset.table.num_records()),
                              result.ranked));
  }
  const auto quality = core::EvaluateClusters(clusters, dataset);
  std::cout << "entity clusters:    " << clusters.num_clusters() << " ("
            << clusters.num_duplicate_groups() << " duplicate groups, " << clustering_label
            << "; pairwise F1 " << FormatDouble(100 * quality.f1, 1) << "%)\n";

  if (args.Has("matches")) {
    std::vector<std::vector<std::string>> rows;
    for (const auto& rp : result.ranked) {
      if (rp.score < 0.5) break;
      rows.push_back({std::to_string(rp.a), std::to_string(rp.b), FormatDouble(rp.score, 4)});
    }
    CROWDER_RETURN_NOT_OK(
        WriteCsvFile(args.Get("matches", ""), {"record_a", "record_b", "confidence"}, rows));
    std::cout << "wrote " << rows.size() << " confirmed matches to " << args.Get("matches", "")
              << "\n";
  }
  if (args.Has("merged")) {
    const data::Table merged = core::MergeClusters(dataset.table, clusters);
    std::vector<std::vector<std::string>> rows = merged.records;
    CROWDER_RETURN_NOT_OK(WriteCsvFile(args.Get("merged", ""), merged.attribute_names, rows));
    std::cout << "wrote " << merged.num_records() << " canonical records to "
              << args.Get("merged", "") << "\n";
  }
  return Status::OK();
}

Status Plan(const Args& args) {
  const std::string in = args.Get("in", "");
  if (in.empty() || !args.Has("budget")) {
    return Status::InvalidArgument("plan requires --in and --budget");
  }
  core::WorkflowConfig base;
  CROWDER_ASSIGN_OR_RETURN(base.cluster_size, args.GetNumber<uint32_t>("k", 10));
  CROWDER_ASSIGN_OR_RETURN(base.num_threads, GetThreads(args));
  CROWDER_ASSIGN_OR_RETURN(const double budget, args.GetNumber<double>("budget", 0.0));
  CROWDER_ASSIGN_OR_RETURN(data::Dataset dataset, data::ReadDatasetCsv(in, in));
  CROWDER_ASSIGN_OR_RETURN(
      core::BudgetPlan plan,
      core::PlanForBudget(dataset, budget, base, {0.5, 0.4, 0.3, 0.2, 0.1}));
  eval::TablePrinter table({"threshold", "#pairs", "#HITs", "cost", "machine recall"});
  for (const auto& pt : plan.evaluated) {
    table.AddRow({FormatDouble(pt.threshold, 1), WithThousands(pt.num_pairs),
                  WithThousands(pt.num_hits), "$" + FormatDouble(pt.cost_dollars, 2),
                  FormatDouble(100 * pt.machine_recall, 1) + "%"});
  }
  std::cout << table.Render();
  if (plan.feasible) {
    std::cout << "recommended threshold: " << FormatDouble(plan.chosen.threshold, 1) << " ($"
              << FormatDouble(plan.chosen.cost_dollars, 2) << ")\n";
  } else {
    std::cout << "no threshold fits the budget; raise it or shrink the data\n";
  }
  return Status::OK();
}

Status ServeBatch(const Args& args) {
  const std::string in = args.Get("in", "");
  if (in.empty()) return Status::InvalidArgument("serve-batch requires --in");

  CROWDER_ASSIGN_OR_RETURN(const serve::ServiceConfig config,
                           tools::ServiceConfigFromFlags(args));
  CROWDER_ASSIGN_OR_RETURN(data::Dataset dataset, data::ReadDatasetCsv(in, in));

  CROWDER_ASSIGN_OR_RETURN(const serve::ServiceReport report,
                           serve::BatchResolve(dataset, config));
  std::cout << "records: " << WithThousands(report.stats.num_records)
            << ", candidates: " << WithThousands(report.stats.candidate_pairs)
            << " (auto " << WithThousands(report.stats.auto_matches) << ", crowd "
            << WithThousands(report.stats.crowd_pairs) << ")\n";
  std::cout << "matches: " << WithThousands(report.stats.applied_matches)
            << ", clusters: " << WithThousands(report.clusters.num_clusters()) << " ("
            << WithThousands(report.clusters.num_duplicate_groups())
            << " duplicate groups)\n";
  std::cout << "crowd: " << WithThousands(report.crowd.num_assignments) << " assignments, "
            << report.crowd.num_distinct_workers << " workers, $"
            << FormatDouble(report.crowd.cost_dollars, 2) << ", median assignment "
            << FormatDouble(report.crowd.median_assignment_seconds, 1) << "s\n";

  const std::string report_path = args.Get("report", "");
  if (!report_path.empty()) {
    CROWDER_RETURN_NOT_OK(serve::WriteClusterReport(report.clusters, report_path));
    std::cout << "wrote cluster report to " << report_path << "\n";
  }
  return Status::OK();
}

}  // namespace
}  // namespace cli
}  // namespace crowder

int main(int argc, char** argv) {
  // Parse knows every subcommand and its flags; anything else is a usage
  // error (exit 2).
  auto args = crowder::cli::Parse(argc, argv);
  if (!args.ok()) {
    std::cerr << args.status().ToString() << "\n";
    return crowder::cli::Usage();
  }
  crowder::Status status;
  if (args->command == "generate") {
    status = crowder::cli::Generate(*args);
  } else if (args->command == "run") {
    status = crowder::cli::Run(*args);
  } else if (args->command == "plan") {
    status = crowder::cli::Plan(*args);
  } else {
    status = crowder::cli::ServeBatch(*args);
  }
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    // Replay-log failures (truncated / corrupt / mismatched vote log) get a
    // distinct exit code so scripts can tell a bad recording apart from any
    // other failure.
    return status.code() == crowder::StatusCode::kDataLoss ? 3 : 1;
  }
  return 0;
}

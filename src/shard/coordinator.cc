#include "shard/coordinator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "shard/process.h"
#include "shard/worker.h"

namespace crowder {
namespace shard {

namespace {

using Clock = std::chrono::steady_clock;

// Records per kRecordBatch spec frame.
constexpr uint32_t kRecordsPerFrame = 4096;

double MsSince(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin).count();
}

Status AnnotateShard(const Status& status, uint32_t shard) {
  if (status.ok()) return status;
  return Status(status.code(), "shard " + std::to_string(shard) + ": " + status.message());
}

/// Ships shard `s`'s slice of the plan as one job spec.
Status ShipSpec(const similarity::JoinInput& input, const similarity::JoinOptions& options,
                const ShardPlan& plan, uint32_t s, FrameTransport* transport) {
  const ShardAssignment& a = plan.shards[s];
  JobSpec spec;
  spec.shard_index = s;
  spec.num_shards = plan.num_shards();
  spec.threshold = options.threshold;
  spec.has_sources = !input.sources.empty();
  spec.num_records = a.owned_end - a.replica_begin;
  CROWDER_RETURN_NOT_OK(transport->Send(EncodeJobSpec(spec)));
  for (uint64_t begin = a.replica_begin; begin < a.owned_end; begin += kRecordsPerFrame) {
    const uint64_t end = std::min<uint64_t>(a.owned_end, begin + kRecordsPerFrame);
    std::vector<uint8_t> payload;
    for (uint64_t p = begin; p < end; ++p) {
      const uint32_t rec = plan.by_size[p];
      AppendRecordEntry(&payload, rec, p, p >= a.owned_begin,
                        spec.has_sources ? input.sources[rec] : 0, input.sets[rec]);
    }
    CROWDER_RETURN_NOT_OK(
        transport->Send(MakeRecordBatchFrame(static_cast<uint32_t>(end - begin),
                                             std::move(payload))));
  }
  CROWDER_RETURN_NOT_OK(transport->Send(EncodeJobSealed()));
  return transport->CloseSend();
}

/// Drains shard `s`'s result stream into the sink; fills `*worker_stats`.
/// Every pair must name records of the input (`num_records` of them), with
/// a < b, strictly ascending across the whole stream: the sink indexes
/// per-record data with the ids, and the merge relies on the order.
Status GatherShard(FrameTransport* transport, uint32_t num_records, const ShardPairSink& sink,
                   WorkerStats* worker_stats, uint64_t* total_pairs) {
  uint64_t last_key = 0;  // (a << 32 | b) of the previous pair; any pair's exceeds 0
  while (true) {
    Frame frame;
    CROWDER_ASSIGN_OR_RETURN(frame, transport->Recv());
    switch (frame.type) {
      case FrameType::kPairBatch: {
        CROWDER_ASSIGN_OR_RETURN(auto pairs, DecodePairBatch(frame));
        for (const similarity::ScoredPair& p : pairs) {
          const uint64_t key = (uint64_t{p.a} << 32) | p.b;
          if (p.b >= num_records || p.a >= p.b || key <= last_key) {
            return Status::IOError("worker sent pair (" + std::to_string(p.a) + "," +
                                   std::to_string(p.b) + "): not an ascending pair of the " +
                                   std::to_string(num_records) + " records");
          }
          last_key = key;
        }
        *total_pairs += pairs.size();
        if (!pairs.empty()) CROWDER_RETURN_NOT_OK(sink(std::move(pairs)));
        break;
      }
      case FrameType::kWorkerDone: {
        CROWDER_ASSIGN_OR_RETURN(*worker_stats, DecodeWorkerDone(frame));
        return Status::OK();
      }
      case FrameType::kWorkerError: {
        CROWDER_ASSIGN_OR_RETURN(const WorkerError error, DecodeWorkerError(frame));
        return Status(error.code, "worker reported: " + error.message);
      }
      default:
        return Status::IOError("worker sent unexpected frame type " +
                               std::to_string(static_cast<uint32_t>(frame.type)));
    }
  }
}

}  // namespace

Status RunShardedJoin(const similarity::JoinInput& input,
                      const similarity::JoinOptions& options, const ShardExecOptions& exec,
                      const ShardPairSink& sink, ShardRunStats* stats) {
  if (exec.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " +
                                   std::to_string(exec.num_shards));
  }
  if (!sink) return Status::InvalidArgument("sharded join requires a pair sink");
  const bool subprocess = !exec.transport_factory && !exec.worker_path.empty();

  ShardRunStats local_stats;
  ShardRunStats* out = stats != nullptr ? stats : &local_stats;
  *out = ShardRunStats{};
  out->subprocess = subprocess;
  out->shards.resize(exec.num_shards);

  const auto plan_begin = Clock::now();
  ShardPlan plan;
  CROWDER_ASSIGN_OR_RETURN(plan, BuildShardPlan(input, options, exec.num_shards));
  out->plan_wall_ms = MsSince(plan_begin);

  // Spawn / build one transport per shard. WorkerProcess kills and reaps
  // its child on destruction, so every early return below cleans up.
  std::vector<WorkerProcess> processes;
  std::vector<std::unique_ptr<FrameTransport>> owned_transports(exec.num_shards);
  std::vector<FrameTransport*> transports(exec.num_shards, nullptr);
  for (uint32_t s = 0; s < exec.num_shards; ++s) {
    if (exec.transport_factory) {
      CROWDER_ASSIGN_OR_RETURN(owned_transports[s], exec.transport_factory(s));
      if (owned_transports[s] == nullptr) {
        return Status::InvalidArgument("transport factory returned null for shard " +
                                       std::to_string(s));
      }
      transports[s] = owned_transports[s].get();
    } else if (subprocess) {
      auto spawned = SpawnWorkerProcess(exec.worker_path, s, exec.num_shards);
      if (!spawned.ok()) return AnnotateShard(spawned.status(), s);
      processes.push_back(std::move(spawned).ValueOrDie());
      transports[s] = processes.back().transport();
    } else {
      owned_transports[s] = std::make_unique<InProcessTransport>(
          "shard " + std::to_string(s) + " worker (in-process)");
      transports[s] = owned_transports[s].get();
    }
  }

  // Phase 1: ship every spec (workers start joining as soon as their spec
  // seals; see the header's deadlock argument).
  const auto ship_begin = Clock::now();
  for (uint32_t s = 0; s < exec.num_shards; ++s) {
    const Status shipped = ShipSpec(input, options, plan, s, transports[s]);
    if (!shipped.ok()) {
      // A worker that died during shipping may have left a kWorkerError
      // explaining why — prefer that over the bare EPIPE.
      auto frame = transports[s]->Recv();
      if (frame.ok() && frame.ValueOrDie().type == FrameType::kWorkerError) {
        auto error = DecodeWorkerError(frame.ValueOrDie());
        if (error.ok()) {
          return AnnotateShard(
              Status(error.ValueOrDie().code, "worker reported: " + error.ValueOrDie().message),
              s);
        }
      }
      return AnnotateShard(shipped, s);
    }
  }
  out->ship_wall_ms = MsSince(ship_begin);

  // Phase 2: gather result streams in shard order.
  const auto gather_begin = Clock::now();
  for (uint32_t s = 0; s < exec.num_shards; ++s) {
    CROWDER_RETURN_NOT_OK(AnnotateShard(
        GatherShard(transports[s], static_cast<uint32_t>(input.sets.size()), sink,
                    &out->shards[s], &out->total_pairs),
        s));
  }
  for (uint32_t s = 0; s < processes.size(); ++s) {
    CROWDER_RETURN_NOT_OK(AnnotateShard(processes[s].Wait(), s));
  }
  out->gather_wall_ms = MsSince(gather_begin);
  return Status::OK();
}

}  // namespace shard
}  // namespace crowder

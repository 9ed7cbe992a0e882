#include "shard/worker.h"

#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "similarity/join_internal.h"

namespace crowder {
namespace shard {

namespace {

double RusageCpuMs(const rusage& ru) {
  const auto tv_ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) * 1e-3;
  };
  return tv_ms(ru.ru_utime) + tv_ms(ru.ru_stime);
}

// The answer to a job that cannot run: one kWorkerError frame.
std::vector<Frame> ErrorAnswer(const Status& status) {
  WorkerError error;
  error.code = status.code();
  error.message = status.message();
  return {EncodeWorkerError(error)};
}

}  // namespace

Status ShardWorkerJob::Feed(const Frame& frame) {
  if (sealed_) return Status::IOError("shard job frame after kJobSealed");
  switch (frame.type) {
    case FrameType::kJobSpec: {
      if (have_spec_) return Status::IOError("duplicate kJobSpec frame");
      CROWDER_ASSIGN_OR_RETURN(spec_, DecodeJobSpec(frame));
      have_spec_ = true;
      return Status::OK();
    }
    case FrameType::kRecordBatch: {
      if (!have_spec_) return Status::IOError("kRecordBatch before kJobSpec");
      CROWDER_ASSIGN_OR_RETURN(auto entries, DecodeRecordBatch(frame));
      if (entries.size() > spec_.num_records - global_ids_.size()) {
        return Status::IOError("shard spec promised " + std::to_string(spec_.num_records) +
                               " records, received more");
      }
      for (auto& e : entries) {
        if (!positions_.empty() && e.position <= positions_.back()) {
          return Status::IOError("shard spec records out of position order");
        }
        // Replicas come first: the worker probes one owned band at the end.
        if (!e.owned && num_replicas_ != global_ids_.size()) {
          return Status::IOError("shard spec replica record after an owned record");
        }
        if (!e.owned) ++num_replicas_;
        global_ids_.push_back(e.global_id);
        positions_.push_back(e.position);
        input_.sets.push_back(std::move(e.tokens));
        if (spec_.has_sources) input_.sources.push_back(e.source);
      }
      return Status::OK();
    }
    case FrameType::kJobSealed: {
      if (!have_spec_) return Status::IOError("kJobSealed before kJobSpec");
      sealed_ = true;
      return Status::OK();
    }
    default:
      return Status::IOError("unexpected frame type " +
                             std::to_string(static_cast<uint32_t>(frame.type)) +
                             " in shard job spec");
  }
}

Result<std::vector<Frame>> ShardWorkerJob::ExecuteOrError(size_t pairs_per_frame) {
  if (!sealed_) return Status::Internal("shard job executed before kJobSealed");
  if (global_ids_.size() != spec_.num_records) {
    return Status::IOError("shard spec promised " + std::to_string(spec_.num_records) +
                           " records, received " + std::to_string(global_ids_.size()));
  }
  const similarity::JoinOptions options{spec_.measure, spec_.threshold};
  if (options.threshold <= 0.0) {
    return Status::InvalidArgument("shard worker requires a positive threshold");
  }
  CROWDER_RETURN_NOT_OK(similarity::ValidateJoin(input_, options));
  // Records arrive in ascending global by_size-position order, which is
  // non-decreasing in size — the local stable sort must be the identity so
  // the local processing order is the global order restricted to this slice.
  for (size_t i = 1; i < input_.sets.size(); ++i) {
    if (input_.sets[i].size() < input_.sets[i - 1].size()) {
      return Status::IOError("shard spec records not in size order");
    }
  }
  // BuildJoinPlan sizes its rank tables by the largest token id, which the
  // wire leaves unbounded (a token id near 2^32 would ask for 48 GiB).
  // Renaming the ids densely, in ascending order, bounds them by the tokens
  // received; the renaming is monotone, so sets stay sorted and every
  // rank order, pair, score and counter is unchanged.
  std::vector<text::TokenId> ids;
  for (const similarity::TokenSet& set : input_.sets) ids.insert(ids.end(), set.begin(), set.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (similarity::TokenSet& set : input_.sets) {
    for (text::TokenId& token : set) {
      token = static_cast<text::TokenId>(std::lower_bound(ids.begin(), ids.end(), token) -
                                         ids.begin());
    }
  }

  const auto wall_begin = std::chrono::steady_clock::now();
  rusage ru_begin{};
  getrusage(RUSAGE_SELF, &ru_begin);

  WorkerStats stats;
  std::vector<similarity::ScoredPair> out;
  if (!input_.sets.empty()) {
    // The one prefix-index kernel of the single-process joins, probing only
    // the owned band. The plan re-ranks tokens by LOCAL frequency — a
    // different bijection than the global join's, which changes candidate
    // generation but never the verified overlap, sizes, or score (the
    // order-symmetric lemma of join_internal.h holds under any one total
    // token order). Local positions are arrival order, so the owned band is
    // [num_replicas, n).
    const similarity::internal::JoinPlan plan = similarity::internal::BuildJoinPlan(input_);
    const similarity::internal::PrefixIndex index(input_, options, plan);
    similarity::JoinStats join_stats;
    index.Probe(num_replicas_, plan.by_size.size(), &out, &join_stats);
    stats.pair_verifications = join_stats.pair_verifications;
    for (similarity::ScoredPair& pair : out) {
      const uint32_t ga = global_ids_[pair.a];
      const uint32_t gb = global_ids_[pair.b];
      pair.a = std::min(ga, gb);
      pair.b = std::max(ga, gb);
    }
  }
  // Canonical output order: global (a, b) ascending, so every kPairBatch
  // frame is a contiguous chunk of a sorted sequence (the PairStream
  // k-way-merge contract on the coordinator side).
  similarity::SortPairs(&out);

  const auto wall_end = std::chrono::steady_clock::now();
  rusage ru_end{};
  getrusage(RUSAGE_SELF, &ru_end);
  stats.num_pairs = out.size();
  stats.replica_records = num_replicas_;
  stats.owned_records = global_ids_.size() - num_replicas_;
  stats.wall_ms = std::chrono::duration<double, std::milli>(wall_end - wall_begin).count();
  stats.cpu_ms = RusageCpuMs(ru_end) - RusageCpuMs(ru_begin);
  stats.max_rss_kb = static_cast<uint64_t>(ru_end.ru_maxrss);

  std::vector<Frame> frames;
  if (pairs_per_frame == 0) pairs_per_frame = 65536;
  for (size_t begin = 0; begin < out.size(); begin += pairs_per_frame) {
    const size_t end = std::min(out.size(), begin + pairs_per_frame);
    frames.push_back(EncodePairBatch(out, begin, end));
  }
  frames.push_back(EncodeWorkerDone(stats));
  return frames;
}

std::vector<Frame> ShardWorkerJob::Execute(size_t pairs_per_frame) {
  auto result = ExecuteOrError(pairs_per_frame);
  if (result.ok()) return std::move(result).ValueOrDie();
  return ErrorAnswer(result.status());
}

std::vector<Frame> AnswerJob(const std::function<Result<Frame>()>& next) {
  ShardWorkerJob job;
  Status status;
  while (status.ok() && !job.sealed()) {
    Result<Frame> frame = next();
    status = frame.ok() ? job.Feed(*frame) : frame.status();
  }
  return status.ok() ? job.Execute() : ErrorAnswer(status);
}

Status RunShardWorker(FrameTransport* transport) {
  for (const Frame& frame : AnswerJob([transport] { return transport->Recv(); })) {
    CROWDER_RETURN_NOT_OK(transport->Send(frame));
  }
  return transport->CloseSend();
}

}  // namespace shard
}  // namespace crowder

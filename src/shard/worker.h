// The shard worker: consumes one job spec (proto.h frames), runs the
// prefix-filtering join over its slice, and produces the shard's owned
// pair list plus run statistics.
//
// The join is the single-process kernel (similarity::internal::PrefixIndex)
// with one restriction: only the OWNED band probes; replicas, which arrive
// before every owned record, are indexed but never probe. Records arrive in
// ascending global by_size-position order, so the local processing order
// is the global order restricted to the slice — the record that probes for
// a pair locally is exactly the record that probes for it in the
// single-process join. Combined with
// internal::VerifyPair being a pure function of (sizes, overlap) — and a
// token-rank bijection preserving both — every emitted score is bitwise
// the single-process score, and the emitted pair set is exactly the pairs
// this shard owns (probe side owned ⇔ later endpoint owned).
#ifndef CROWDER_SHARD_WORKER_H_
#define CROWDER_SHARD_WORKER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "shard/proto.h"
#include "shard/transport.h"

namespace crowder {
namespace shard {

/// \brief Accumulates one job from decoded spec frames, then executes it.
/// Frame order: kJobSpec, kRecordBatch*, kJobSealed. Invalid jobs (bad
/// frame order, positions out of order, token sets unsorted) surface from
/// Execute as a single kWorkerError frame — the transport stays healthy so
/// the coordinator reads a clean error instead of an EOF.
class ShardWorkerJob {
 public:
  /// Feeds one spec frame. Returns IOError on malformed frames or
  /// protocol-order violations.
  Status Feed(const Frame& frame);

  /// True once kJobSealed was fed.
  bool sealed() const { return sealed_; }

  /// Runs the join and returns the result stream: kPairBatch frames of at
  /// most `pairs_per_frame` pairs (each a contiguous chunk of the shard's
  /// (a, b)-sorted owned pair list) followed by kWorkerDone — or a single
  /// kWorkerError frame when the job was invalid.
  std::vector<Frame> Execute(size_t pairs_per_frame = 65536);

 private:
  Result<std::vector<Frame>> ExecuteOrError(size_t pairs_per_frame);

  JobSpec spec_;
  bool have_spec_ = false;
  bool sealed_ = false;
  std::vector<uint32_t> global_ids_;
  std::vector<uint64_t> positions_;
  /// Replica records received; they precede every owned record.
  size_t num_replicas_ = 0;
  similarity::JoinInput input_;
};

/// \brief One job, start to answer: reads spec frames from `next` until
/// kJobSealed, then executes the job. The answer always ends in a terminal
/// frame: a read error (a stream that ends early or breaks mid-frame), like
/// an invalid job, becomes a single kWorkerError frame. Both transports'
/// workers are this function.
std::vector<Frame> AnswerJob(const std::function<Result<Frame>()>& next);

/// \brief The crowder_shardd main loop: AnswerJob over the transport's
/// Recv, Send every answer frame, CloseSend. Only a failure to write the
/// answer — the coordinator died — is returned.
Status RunShardWorker(FrameTransport* transport);

}  // namespace shard
}  // namespace crowder

#endif  // CROWDER_SHARD_WORKER_H_

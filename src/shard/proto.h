// The wire protocol between the shard coordinator and its workers:
// length-prefixed binary frames, the same bytes over a pipe (subprocess
// workers) or an in-memory queue (in-process workers and tests).
//
// Frame wire format (all integers little-endian):
//
//   u32 frame type | u64 payload length | payload bytes
//
// A job flows in one direction per phase. Coordinator -> worker:
//
//   kJobSpec      magic, protocol version, shard index / count, Jaccard
//                 threshold (IEEE-754 bits — the worker verifies with the
//                 coordinator's exact double), source-label flag, record
//                 count.
//   kRecordBatch* records in ascending by_size-position order: global id,
//                 position, owned flag, source label, token list (global
//                 token ids — workers re-rank locally; the rank map is a
//                 bijection, so overlaps and therefore scores are exact).
//   kJobSealed    end of spec; the worker starts joining.
//
// Worker -> coordinator:
//
//   kPairBatch*   contiguous chunks of the shard's (a, b)-sorted owned
//                 pair list — global record ids, score as IEEE-754 bits
//                 (bitwise, not approximately, the single-process score).
//   kWorkerDone   terminal: per-shard counters (pairs, verifications,
//                 owned/replica record counts) and wall/CPU/RSS.
//   kWorkerError  terminal: a StatusCode and message instead of results.
//
// Every stream ends with a terminal frame; an EOF anywhere else is a
// transport error (how a killed worker surfaces — see transport.h).
#ifndef CROWDER_SHARD_PROTO_H_
#define CROWDER_SHARD_PROTO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace shard {

/// \brief Spec magic ("CRSH") — first field of every kJobSpec payload.
inline constexpr uint32_t kShardMagic = 0x43525348u;
/// \brief Protocol version; bumped on any wire-format change. Version 2
/// dropped version 1's set-measure field from kJobSpec (Jaccard is the only
/// measure), so a version-1 peer fails by name instead of being misread.
inline constexpr uint32_t kShardProtocolVersion = 2;
/// \brief Upper bound on a frame payload — anything larger is treated as a
/// corrupt stream by the transports.
inline constexpr uint64_t kMaxFramePayload = uint64_t{1} << 34;

enum class FrameType : uint32_t {
  kJobSpec = 1,
  kRecordBatch = 2,
  kJobSealed = 3,
  kPairBatch = 4,
  kWorkerDone = 5,
  kWorkerError = 6,
};

/// \brief One protocol frame: a type tag and its payload bytes.
struct Frame {
  FrameType type = FrameType::kJobSpec;
  std::vector<uint8_t> payload;
};

/// \brief The kJobSpec payload.
struct JobSpec {
  uint32_t shard_index = 0;
  uint32_t num_shards = 1;
  /// Jaccard threshold.
  double threshold = 0.0;
  /// Whether records carry source labels (cross-source joins).
  bool has_sources = false;
  /// Total records this worker will receive (owned + replicas).
  uint64_t num_records = 0;
};

/// \brief One record of a kRecordBatch payload.
struct RecordEntry {
  /// Record id in the coordinator's JoinInput (the id space of the output).
  uint32_t global_id = 0;
  /// Position in the global by_size order (spec batches are ascending).
  uint64_t position = 0;
  /// Owned records probe and index; replicas only index.
  bool owned = false;
  /// Source label; meaningful only when the spec has has_sources.
  int32_t source = 0;
  /// The record's token set (sorted, deduplicated global token ids).
  similarity::TokenSet tokens;
};

/// \brief The kWorkerDone payload: what one worker reports about its run.
struct WorkerStats {
  uint64_t num_pairs = 0;
  uint64_t pair_verifications = 0;
  uint64_t owned_records = 0;
  uint64_t replica_records = 0;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  /// Peak RSS of the worker process in KiB (getrusage; for in-process
  /// workers this is the host process — documented, not subtracted).
  uint64_t max_rss_kb = 0;
};

/// \brief The kWorkerError payload.
struct WorkerError {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

// ---- Encoders (append to a frame payload). ----

Frame EncodeJobSpec(const JobSpec& spec);
/// Encodes `entries[begin, end)` as one kRecordBatch frame.
Frame EncodeRecordBatch(const std::vector<RecordEntry>& entries, size_t begin, size_t end);
/// Streaming encoder used by the coordinator: appends one record to a
/// batch payload under construction (the batch starts with AppendBatchCount).
void AppendRecordEntry(std::vector<uint8_t>* payload, uint32_t global_id, uint64_t position,
                       bool owned, int32_t source, const similarity::TokenSet& tokens);
Frame MakeRecordBatchFrame(uint32_t count, std::vector<uint8_t>&& entries_payload);
Frame EncodeJobSealed();
/// Encodes `pairs[begin, end)` as one kPairBatch frame.
Frame EncodePairBatch(const std::vector<similarity::ScoredPair>& pairs, size_t begin, size_t end);
Frame EncodeWorkerDone(const WorkerStats& stats);
Frame EncodeWorkerError(const WorkerError& error);

// ---- Decoders (validate lengths; bound every count by the payload bytes
// left before allocating; reject another protocol version, unknown status
// codes, and trailing bytes). ----

Result<JobSpec> DecodeJobSpec(const Frame& frame);
Result<std::vector<RecordEntry>> DecodeRecordBatch(const Frame& frame);
Result<std::vector<similarity::ScoredPair>> DecodePairBatch(const Frame& frame);
Result<WorkerStats> DecodeWorkerDone(const Frame& frame);
Result<WorkerError> DecodeWorkerError(const Frame& frame);

}  // namespace shard
}  // namespace crowder

#endif  // CROWDER_SHARD_PROTO_H_

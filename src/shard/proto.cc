#include "shard/proto.h"

#include <cstring>

namespace crowder {
namespace shard {

namespace {

// Little-endian writers. memcpy keeps them alias-safe; on the little-endian
// targets this runtime supports they compile to plain stores.
void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  uint8_t raw[4];
  for (int i = 0; i < 4; ++i) raw[i] = static_cast<uint8_t>(v >> (8 * i));
  out->insert(out->end(), raw, raw + 4);
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  uint8_t raw[8];
  for (int i = 0; i < 8; ++i) raw[i] = static_cast<uint8_t>(v >> (8 * i));
  out->insert(out->end(), raw, raw + 8);
}

void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

// Bounds-checked reader over one payload.
class Cursor {
 public:
  explicit Cursor(const std::vector<uint8_t>& payload) : data_(payload.data()), size_(payload.size()) {}

  Status ReadU8(uint8_t* v) {
    if (pos_ + 1 > size_) return Truncated();
    *v = data_[pos_++];
    return Status::OK();
  }
  Status ReadU32(uint32_t* v) {
    if (pos_ + 4 > size_) return Truncated();
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) out |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    *v = out;
    return Status::OK();
  }
  Status ReadU64(uint64_t* v) {
    if (pos_ + 8 > size_) return Truncated();
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) out |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    *v = out;
    return Status::OK();
  }
  Status ReadF64(double* v) {
    uint64_t bits = 0;
    CROWDER_RETURN_NOT_OK(ReadU64(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }
  Status ReadBytes(size_t n, std::string* out) {
    if (pos_ + n > size_) return Truncated();
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::OK();
  }
  size_t remaining() const { return size_ - pos_; }
  Status ExpectDone() const {
    if (pos_ != size_) {
      return Status::IOError("shard frame has " + std::to_string(size_ - pos_) +
                             " trailing payload bytes");
    }
    return Status::OK();
  }

 private:
  static Status Truncated() { return Status::IOError("shard frame payload truncated"); }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// Encoded sizes the decoders bound their counts with before allocating: a
// record entry is at least its fixed fields (id, position, owned flag,
// source, token count), and a pair entry is exactly (a, b, score bits).
constexpr size_t kMinRecordEntryBytes = 4 + 8 + 1 + 4 + 4;
constexpr size_t kPairEntryBytes = 4 + 4 + 8;

Status ExpectType(const Frame& frame, FrameType want, const char* name) {
  if (frame.type != want) {
    return Status::IOError(std::string("expected ") + name + " frame, got type " +
                           std::to_string(static_cast<uint32_t>(frame.type)));
  }
  return Status::OK();
}

}  // namespace

Frame EncodeJobSpec(const JobSpec& spec) {
  Frame frame;
  frame.type = FrameType::kJobSpec;
  PutU32(&frame.payload, kShardMagic);
  PutU32(&frame.payload, kShardProtocolVersion);
  PutU32(&frame.payload, spec.shard_index);
  PutU32(&frame.payload, spec.num_shards);
  PutU32(&frame.payload, static_cast<uint32_t>(spec.measure));
  PutF64(&frame.payload, spec.threshold);
  PutU8(&frame.payload, spec.has_sources ? 1 : 0);
  PutU64(&frame.payload, spec.num_records);
  return frame;
}

Result<JobSpec> DecodeJobSpec(const Frame& frame) {
  CROWDER_RETURN_NOT_OK(ExpectType(frame, FrameType::kJobSpec, "kJobSpec"));
  Cursor c(frame.payload);
  uint32_t magic = 0, version = 0, measure = 0;
  uint8_t has_sources = 0;
  JobSpec spec;
  CROWDER_RETURN_NOT_OK(c.ReadU32(&magic));
  if (magic != kShardMagic) return Status::IOError("bad shard spec magic");
  CROWDER_RETURN_NOT_OK(c.ReadU32(&version));
  if (version != kShardProtocolVersion) {
    return Status::IOError("shard protocol version mismatch: peer speaks " +
                           std::to_string(version) + ", this binary speaks " +
                           std::to_string(kShardProtocolVersion));
  }
  CROWDER_RETURN_NOT_OK(c.ReadU32(&spec.shard_index));
  CROWDER_RETURN_NOT_OK(c.ReadU32(&spec.num_shards));
  CROWDER_RETURN_NOT_OK(c.ReadU32(&measure));
  if (measure > static_cast<uint32_t>(similarity::SetMeasure::kOverlapCoefficient)) {
    return Status::IOError("shard spec has unknown set measure " + std::to_string(measure));
  }
  spec.measure = static_cast<similarity::SetMeasure>(measure);
  CROWDER_RETURN_NOT_OK(c.ReadF64(&spec.threshold));
  CROWDER_RETURN_NOT_OK(c.ReadU8(&has_sources));
  spec.has_sources = has_sources != 0;
  CROWDER_RETURN_NOT_OK(c.ReadU64(&spec.num_records));
  CROWDER_RETURN_NOT_OK(c.ExpectDone());
  return spec;
}

void AppendRecordEntry(std::vector<uint8_t>* payload, uint32_t global_id, uint64_t position,
                       bool owned, int32_t source, const similarity::TokenSet& tokens) {
  PutU32(payload, global_id);
  PutU64(payload, position);
  PutU8(payload, owned ? 1 : 0);
  PutU32(payload, static_cast<uint32_t>(source));
  PutU32(payload, static_cast<uint32_t>(tokens.size()));
  for (const auto tok : tokens) PutU32(payload, static_cast<uint32_t>(tok));
}

Frame MakeRecordBatchFrame(uint32_t count, std::vector<uint8_t>&& entries_payload) {
  Frame frame;
  frame.type = FrameType::kRecordBatch;
  frame.payload.reserve(4 + entries_payload.size());
  PutU32(&frame.payload, count);
  frame.payload.insert(frame.payload.end(), entries_payload.begin(), entries_payload.end());
  return frame;
}

Frame EncodeRecordBatch(const std::vector<RecordEntry>& entries, size_t begin, size_t end) {
  std::vector<uint8_t> payload;
  for (size_t i = begin; i < end; ++i) {
    const RecordEntry& e = entries[i];
    AppendRecordEntry(&payload, e.global_id, e.position, e.owned, e.source, e.tokens);
  }
  return MakeRecordBatchFrame(static_cast<uint32_t>(end - begin), std::move(payload));
}

Result<std::vector<RecordEntry>> DecodeRecordBatch(const Frame& frame) {
  CROWDER_RETURN_NOT_OK(ExpectType(frame, FrameType::kRecordBatch, "kRecordBatch"));
  Cursor c(frame.payload);
  uint32_t count = 0;
  CROWDER_RETURN_NOT_OK(c.ReadU32(&count));
  if (count > c.remaining() / kMinRecordEntryBytes) {
    return Status::IOError("shard record batch count overruns payload");
  }
  std::vector<RecordEntry> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    RecordEntry e;
    uint8_t owned = 0;
    uint32_t source = 0, num_tokens = 0;
    CROWDER_RETURN_NOT_OK(c.ReadU32(&e.global_id));
    CROWDER_RETURN_NOT_OK(c.ReadU64(&e.position));
    CROWDER_RETURN_NOT_OK(c.ReadU8(&owned));
    e.owned = owned != 0;
    CROWDER_RETURN_NOT_OK(c.ReadU32(&source));
    e.source = static_cast<int32_t>(source);
    CROWDER_RETURN_NOT_OK(c.ReadU32(&num_tokens));
    if (num_tokens > c.remaining() / 4) {
      return Status::IOError("shard record token count overruns payload");
    }
    e.tokens.resize(num_tokens);
    for (uint32_t t = 0; t < num_tokens; ++t) {
      uint32_t tok = 0;
      CROWDER_RETURN_NOT_OK(c.ReadU32(&tok));
      e.tokens[t] = tok;
    }
    out.push_back(std::move(e));
  }
  CROWDER_RETURN_NOT_OK(c.ExpectDone());
  return out;
}

Frame EncodeJobSealed() {
  Frame frame;
  frame.type = FrameType::kJobSealed;
  return frame;
}

Frame EncodePairBatch(const std::vector<similarity::ScoredPair>& pairs, size_t begin, size_t end) {
  Frame frame;
  frame.type = FrameType::kPairBatch;
  PutU64(&frame.payload, end - begin);
  for (size_t i = begin; i < end; ++i) {
    PutU32(&frame.payload, pairs[i].a);
    PutU32(&frame.payload, pairs[i].b);
    PutF64(&frame.payload, pairs[i].score);
  }
  return frame;
}

Result<std::vector<similarity::ScoredPair>> DecodePairBatch(const Frame& frame) {
  CROWDER_RETURN_NOT_OK(ExpectType(frame, FrameType::kPairBatch, "kPairBatch"));
  Cursor c(frame.payload);
  uint64_t count = 0;
  CROWDER_RETURN_NOT_OK(c.ReadU64(&count));
  if (count > c.remaining() / kPairEntryBytes) {
    return Status::IOError("shard pair batch count overruns payload");
  }
  std::vector<similarity::ScoredPair> out;
  out.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    similarity::ScoredPair p;
    CROWDER_RETURN_NOT_OK(c.ReadU32(&p.a));
    CROWDER_RETURN_NOT_OK(c.ReadU32(&p.b));
    CROWDER_RETURN_NOT_OK(c.ReadF64(&p.score));
    out.push_back(p);
  }
  CROWDER_RETURN_NOT_OK(c.ExpectDone());
  return out;
}

Frame EncodeWorkerDone(const WorkerStats& stats) {
  Frame frame;
  frame.type = FrameType::kWorkerDone;
  PutU64(&frame.payload, stats.num_pairs);
  PutU64(&frame.payload, stats.pair_verifications);
  PutU64(&frame.payload, stats.owned_records);
  PutU64(&frame.payload, stats.replica_records);
  PutF64(&frame.payload, stats.wall_ms);
  PutF64(&frame.payload, stats.cpu_ms);
  PutU64(&frame.payload, stats.max_rss_kb);
  return frame;
}

Result<WorkerStats> DecodeWorkerDone(const Frame& frame) {
  CROWDER_RETURN_NOT_OK(ExpectType(frame, FrameType::kWorkerDone, "kWorkerDone"));
  Cursor c(frame.payload);
  WorkerStats stats;
  CROWDER_RETURN_NOT_OK(c.ReadU64(&stats.num_pairs));
  CROWDER_RETURN_NOT_OK(c.ReadU64(&stats.pair_verifications));
  CROWDER_RETURN_NOT_OK(c.ReadU64(&stats.owned_records));
  CROWDER_RETURN_NOT_OK(c.ReadU64(&stats.replica_records));
  CROWDER_RETURN_NOT_OK(c.ReadF64(&stats.wall_ms));
  CROWDER_RETURN_NOT_OK(c.ReadF64(&stats.cpu_ms));
  CROWDER_RETURN_NOT_OK(c.ReadU64(&stats.max_rss_kb));
  CROWDER_RETURN_NOT_OK(c.ExpectDone());
  return stats;
}

Frame EncodeWorkerError(const WorkerError& error) {
  Frame frame;
  frame.type = FrameType::kWorkerError;
  PutU32(&frame.payload, static_cast<uint32_t>(error.code));
  PutU32(&frame.payload, static_cast<uint32_t>(error.message.size()));
  frame.payload.insert(frame.payload.end(), error.message.begin(), error.message.end());
  return frame;
}

Result<WorkerError> DecodeWorkerError(const Frame& frame) {
  CROWDER_RETURN_NOT_OK(ExpectType(frame, FrameType::kWorkerError, "kWorkerError"));
  Cursor c(frame.payload);
  WorkerError error;
  uint32_t code = 0, len = 0;
  CROWDER_RETURN_NOT_OK(c.ReadU32(&code));
  if (code == 0 || code > static_cast<uint32_t>(StatusCode::kDataLoss)) {
    return Status::IOError("shard worker error has unknown status code " + std::to_string(code));
  }
  error.code = static_cast<StatusCode>(code);
  CROWDER_RETURN_NOT_OK(c.ReadU32(&len));
  CROWDER_RETURN_NOT_OK(c.ReadBytes(len, &error.message));
  CROWDER_RETURN_NOT_OK(c.ExpectDone());
  return error;
}

}  // namespace shard
}  // namespace crowder

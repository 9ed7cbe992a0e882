#include "crowd/vote_log.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>
#include <unordered_set>

#include "common/logging.h"

namespace crowder {
namespace crowd {

namespace {

// Shortest round-trip formatting via std::to_chars: locale-independent (an
// embedder's setlocale can never corrupt a log) and exact for every finite
// IEEE-754 double — the property the replay's byte-identity claim rests on.
std::string ExactDouble(double value) {
  char buf[40];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  CROWDER_CHECK(ec == std::errc());
  return std::string(buf, end);
}

// Narrows a log number to an unsigned id or count. A negative, fractional
// or out-of-range value is corruption: converting it would be undefined
// behaviour, not a wrapped value.
template <typename T>
bool ToUnsigned(double value, T* out) {
  if (!(value >= 0.0 && value < std::ldexp(1.0, std::numeric_limits<T>::digits)) ||
      std::trunc(value) != value) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

// ---------------------------------------------------------------------------
// Minimal JSON for the machine-written log lines. Strict enough to reject
// truncated or hand-corrupted lines with a useful message; numbers are
// doubles (every id in the log is far below 2^53).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    CROWDER_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing characters after JSON value");
    return value;
  }

 private:
  Status Fail(const std::string& what) const {
    return Status::InvalidArgument(what + " at offset " + std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r' ||
            text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  Result<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        // Log lines nest three deep; a hostile line must not recurse
        // until the stack runs out.
        if (++depth_ > kMaxDepth) return Fail("nesting too deep");
        Result<JsonValue> nested = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return nested;
      }
      case '"':
        return ParseString();
      case 't':
      case 'f':
        return ParseBool();
      case 'n':
        return ParseNull();
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      SkipSpace();
      CROWDER_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Fail("expected ':'");
      ++pos_;
      CROWDER_ASSIGN_OR_RETURN(JsonValue member, ParseValue());
      value.object.emplace_back(std::move(key.string), std::move(member));
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return value;
      }
      return Fail("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      CROWDER_ASSIGN_OR_RETURN(JsonValue element, ParseValue());
      value.array.push_back(std::move(element));
      SkipSpace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return value;
      }
      return Fail("expected ',' or ']'");
    }
  }

  Result<JsonValue> ParseString() {
    if (text_[pos_] != '"') return Fail("expected string");
    ++pos_;
    JsonValue value;
    value.type = JsonValue::Type::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return Fail("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          default:
            c = esc;  // \", \\, \/ and anything else: literal
        }
      }
      value.string.push_back(c);
    }
    if (pos_ >= text_.size()) return Fail("unterminated string");
    ++pos_;  // closing quote
    return value;
  }

  Result<JsonValue> ParseBool() {
    JsonValue value;
    value.type = JsonValue::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value.boolean = true;
      pos_ += 4;
      return value;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      value.boolean = false;
      pos_ += 5;
      return value;
    }
    return Fail("expected 'true' or 'false'");
  }

  Result<JsonValue> ParseNull() {
    if (text_.compare(pos_, 4, "null") != 0) return Fail("expected 'null'");
    pos_ += 4;
    return JsonValue{};
  }

  Result<JsonValue> ParseNumber() {
    // std::from_chars: the locale-independent inverse of ExactDouble.
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    double number = 0.0;
    const auto [ptr, ec] = std::from_chars(begin, end, number);
    if (ec != std::errc() || ptr == begin || !std::isfinite(number)) {
      return Fail("expected number");
    }
    pos_ += static_cast<size_t>(ptr - begin);
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    value.number = number;
    return value;
  }

  static constexpr int kMaxDepth = 16;

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

// Field accessors that fail with a message instead of asserting — log lines
// come from disk.
Result<double> NumberField(const JsonValue& object, const std::string& key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || value->type != JsonValue::Type::kNumber) {
    return Status::InvalidArgument("missing or non-numeric field '" + key + "'");
  }
  return value->number;
}

Result<const JsonValue*> ArrayField(const JsonValue& object, const std::string& key) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr || value->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("missing or non-array field '" + key + "'");
  }
  return value;
}

Result<std::vector<double>> NumberArray(const JsonValue& array, size_t expected_size,
                                        const std::string& what) {
  if (array.type != JsonValue::Type::kArray || array.array.size() != expected_size) {
    return Status::InvalidArgument("malformed " + what + " entry");
  }
  std::vector<double> out;
  out.reserve(expected_size);
  for (const JsonValue& element : array.array) {
    if (element.type != JsonValue::Type::kNumber) {
      return Status::InvalidArgument("malformed " + what + " entry");
    }
    out.push_back(element.number);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// VoteLogWriter
// ---------------------------------------------------------------------------

VoteLogWriter::VoteLogWriter(std::string path, std::ofstream out)
    : path_(std::move(path)), out_(std::move(out)) {}

Result<std::unique_ptr<VoteLogWriter>> VoteLogWriter::Create(const std::string& path) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) return Status::IOError("cannot open vote log for writing: " + path);
  auto writer = std::unique_ptr<VoteLogWriter>(new VoteLogWriter(path, std::move(out)));
  writer->out_ << "{\"crowder_vote_log\":1}\n";
  return writer;
}

Status VoteLogWriter::WriteBatch(const HitBatch& hits, const VoteBatch& votes) {
  if (closed_) return Status::InvalidArgument("WriteBatch on a closed vote log");
  if (failed_) return Status::InvalidArgument("vote log failed earlier; log is incomplete");
  // The merged walk below requires hit_votes and assignments in HIT order
  // within the batch (the VoteBatch contract). Validate before writing a
  // byte: an out-of-order batch written anyway would silently drop votes
  // from the log while still passing every replay identity check.
  const uint32_t end_hit = hits.first_hit + static_cast<uint32_t>(hits.num_hits());
  const auto in_range_and_ordered = [&](uint32_t hit, uint32_t prev) {
    return hit >= hits.first_hit && hit < end_hit && hit >= prev;
  };
  uint32_t prev = hits.first_hit;
  for (const HitVotes& hv : votes.hit_votes) {
    if (!in_range_and_ordered(hv.hit, prev)) {
      failed_ = true;
      return Status::InvalidArgument(
          "VoteBatch is not in HIT order (or names HITs outside the batch); the vote log "
          "requires per-HIT responses sorted by global HIT index");
    }
    prev = hv.hit;
  }
  prev = hits.first_hit;
  for (const AssignmentRecord& rec : votes.assignments) {
    if (!in_range_and_ordered(rec.hit, prev)) {
      failed_ = true;
      return Status::InvalidArgument(
          "VoteBatch assignments are not in HIT order (or name HITs outside the batch)");
    }
    prev = rec.hit;
  }

  // One merged walk: a cursor per vector writes every line in O(n) instead
  // of rescanning the whole batch per HIT.
  size_t vote_cursor = 0;
  size_t assignment_cursor = 0;
  for (size_t i = 0; i < hits.num_hits(); ++i) {
    const uint32_t hit = hits.first_hit + static_cast<uint32_t>(i);
    out_ << "{\"hit\":" << hit;
    if (hits.pair_hits != nullptr) {
      out_ << ",\"pairs\":[";
      const auto& edges = (*hits.pair_hits)[i].pairs;
      for (size_t e = 0; e < edges.size(); ++e) {
        out_ << (e == 0 ? "" : ",") << '[' << edges[e].a << ',' << edges[e].b << ']';
      }
      out_ << ']';
    } else {
      out_ << ",\"records\":[";
      const auto& records = (*hits.cluster_hits)[i].records;
      for (size_t r = 0; r < records.size(); ++r) {
        out_ << (r == 0 ? "" : ",") << records[r];
      }
      out_ << ']';
    }
    out_ << ",\"votes\":[";
    bool first = true;
    while (vote_cursor < votes.hit_votes.size() && votes.hit_votes[vote_cursor].hit == hit) {
      for (const PairVote& pv : votes.hit_votes[vote_cursor].votes) {
        out_ << (first ? "" : ",") << '[' << pv.a << ',' << pv.b << ',' << pv.vote.worker_id
             << ',' << (pv.vote.says_match ? 1 : 0) << ']';
        first = false;
      }
      ++vote_cursor;
    }
    out_ << "],\"assignments\":[";
    first = true;
    while (assignment_cursor < votes.assignments.size() &&
           votes.assignments[assignment_cursor].hit == hit) {
      const AssignmentRecord& rec = votes.assignments[assignment_cursor];
      out_ << (first ? "" : ",") << '[' << rec.worker << ',' << ExactDouble(rec.duration_seconds)
           << ',' << rec.comparisons << ',' << (rec.by_spammer ? 1 : 0) << ']';
      first = false;
      ++assignment_cursor;
    }
    out_ << "]}\n";
  }
  if (!out_.good()) {
    failed_ = true;  // partial lines may be on disk; the log must not be completed
    return Status::IOError("write to vote log failed: " + path_);
  }
  return Status::OK();
}

Status VoteLogWriter::WriteFinish(const CrowdRunResult& stats) {
  if (closed_) return Status::InvalidArgument("WriteFinish on a closed vote log");
  if (failed_) return Status::InvalidArgument("vote log failed earlier; log is incomplete");
  out_ << "{\"finish\":{"
       << "\"num_hits\":" << stats.num_hits
       << ",\"num_assignments\":" << stats.num_assignments
       << ",\"total_comparisons\":" << stats.total_comparisons
       << ",\"num_distinct_workers\":" << stats.num_distinct_workers
       << ",\"num_spammer_assignments\":" << stats.num_spammer_assignments
       << ",\"median_assignment_seconds\":" << ExactDouble(stats.median_assignment_seconds)
       << ",\"total_seconds\":" << ExactDouble(stats.total_seconds)
       << ",\"cost_dollars\":" << ExactDouble(stats.cost_dollars) << "}}\n";
  if (!out_.good()) return Status::IOError("write to vote log failed: " + path_);
  return Status::OK();
}

Status VoteLogWriter::Close() {
  if (closed_) return Status::InvalidArgument("vote log already closed");
  closed_ = true;
  out_.flush();
  const bool flush_ok = out_.good();
  out_.close();
  if (failed_) {
    return Status::IOError("vote log " + path_ + " is incomplete (an earlier write failed)");
  }
  if (!flush_ok) return Status::IOError("flushing vote log failed: " + path_);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// RecordedCrowdBackend
// ---------------------------------------------------------------------------

RecordedCrowdBackend::RecordedCrowdBackend(std::string path, std::ifstream in)
    : path_(std::move(path)), in_(std::move(in)) {}

Result<std::unique_ptr<RecordedCrowdBackend>> RecordedCrowdBackend::Open(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open vote log: " + path);
  auto backend =
      std::unique_ptr<RecordedCrowdBackend>(new RecordedCrowdBackend(path, std::move(in)));
  std::string line;
  if (!backend->NextLine(&line)) {
    return Status::DataLoss("vote log is empty: " + path);
  }
  auto header = JsonParser(line).Parse();
  if (!header.ok() || header->Find("crowder_vote_log") == nullptr) {
    return Status::DataLoss("not a crowder vote log (bad header line): " + path);
  }
  return backend;
}

bool RecordedCrowdBackend::NextLine(std::string* line) {
  while (std::getline(in_, *line)) {
    if (!line->empty()) return true;  // tolerate blank lines
  }
  return false;
}

Result<Ticket> RecordedCrowdBackend::Post(const HitBatch& batch) {
  if (finished_) return Status::InvalidArgument("Post after Finish");
  if (ticket_outstanding_) {
    return Status::InvalidArgument("Post before the previous batch was polled");
  }
  CROWDER_RETURN_NOT_OK(ValidateBatchShape(batch));
  pending_batch_ = &batch;
  ticket_outstanding_ = true;
  return next_ticket_;
}

Result<VoteBatch> RecordedCrowdBackend::Poll(Ticket ticket) {
  if (finished_) return Status::InvalidArgument("Poll after Finish");
  if (!ticket_outstanding_ || ticket != next_ticket_) {
    return Status::InvalidArgument("Poll for unknown ticket " + std::to_string(ticket));
  }
  const HitBatch& batch = *pending_batch_;
  VoteBatch out;
  out.hit_votes.reserve(batch.num_hits());

  // Log corruption inside a vote entry (a flipped record id) must surface
  // here as DataLoss — not later as the driver's generic bad-transport
  // rejection — so replay failures keep their distinct classification.
  std::unordered_set<uint64_t> context_keys;
  context_keys.reserve(batch.pairs->size());
  for (const auto& p : *batch.pairs) context_keys.insert(PairKey(p.a, p.b));

  for (size_t i = 0; i < batch.num_hits(); ++i) {
    const uint32_t hit = batch.first_hit + static_cast<uint32_t>(i);
    const std::string at_hit = " at HIT " + std::to_string(hit);
    std::string line;
    if (!NextLine(&line)) {
      return Status::DataLoss("vote log " + path_ + " truncated: log ended" + at_hit +
                              " with the HIT batch still pending");
    }
    auto parsed = JsonParser(line).Parse();
    if (!parsed.ok()) {
      return Status::DataLoss("vote log " + path_ + " corrupt" + at_hit + ": " +
                              parsed.status().message());
    }
    if (parsed->Find("finish") != nullptr) {
      return Status::DataLoss("vote log " + path_ + " truncated: finish record reached" +
                              at_hit + " but the run generated more HITs");
    }
    auto recorded_hit = NumberField(*parsed, "hit");
    if (!recorded_hit.ok() || *recorded_hit != hit) {
      return Status::DataLoss("vote log " + path_ + " mismatch" + at_hit +
                              ": recorded line carries HIT index " +
                              (recorded_hit.ok() ? ExactDouble(*recorded_hit)
                                                 : std::string("<missing>")));
    }

    // The recorded HIT identity must be the generated one — a log recorded
    // from a different configuration (threshold, k, seed...) fails here.
    if (batch.pair_hits != nullptr) {
      const auto& edges = (*batch.pair_hits)[i].pairs;
      CROWDER_ASSIGN_OR_RETURN(const JsonValue* pairs, ArrayField(*parsed, "pairs"));
      bool match = pairs->array.size() == edges.size();
      for (size_t e = 0; match && e < edges.size(); ++e) {
        auto pair = NumberArray(pairs->array[e], 2, "pair");
        match = pair.ok() && (*pair)[0] == edges[e].a && (*pair)[1] == edges[e].b;
      }
      if (!match) {
        return Status::DataLoss("vote log " + path_ + " mismatch" + at_hit +
                                ": recorded pairs differ from the generated HIT");
      }
    } else {
      const auto& records = (*batch.cluster_hits)[i].records;
      CROWDER_ASSIGN_OR_RETURN(const JsonValue* recs, ArrayField(*parsed, "records"));
      bool match = recs->array.size() == records.size();
      for (size_t r = 0; match && r < records.size(); ++r) {
        match = recs->array[r].type == JsonValue::Type::kNumber &&
                recs->array[r].number == records[r];
      }
      if (!match) {
        return Status::DataLoss("vote log " + path_ + " mismatch" + at_hit +
                                ": recorded records differ from the generated HIT");
      }
    }

    HitVotes hv;
    hv.hit = hit;
    CROWDER_ASSIGN_OR_RETURN(const JsonValue* votes, ArrayField(*parsed, "votes"));
    hv.votes.reserve(votes->array.size());
    for (const JsonValue& entry : votes->array) {
      auto fields = NumberArray(entry, 4, "vote");
      PairVote pv;
      if (!fields.ok() || !ToUnsigned((*fields)[0], &pv.a) || !ToUnsigned((*fields)[1], &pv.b) ||
          !ToUnsigned((*fields)[2], &pv.vote.worker_id)) {
        return Status::DataLoss("vote log " + path_ + " corrupt" + at_hit +
                                ": malformed vote entry");
      }
      pv.vote.says_match = (*fields)[3] != 0.0;
      if (context_keys.find(PairKey(pv.a, pv.b)) == context_keys.end()) {
        return Status::DataLoss("vote log " + path_ + " corrupt" + at_hit +
                                ": recorded vote names pair (" + std::to_string(pv.a) + "," +
                                std::to_string(pv.b) +
                                ") outside the batch's candidate context");
      }
      hv.votes.push_back(pv);
    }
    out.hit_votes.push_back(std::move(hv));

    CROWDER_ASSIGN_OR_RETURN(const JsonValue* assignments, ArrayField(*parsed, "assignments"));
    for (const JsonValue& entry : assignments->array) {
      auto fields = NumberArray(entry, 4, "assignment");
      AssignmentRecord rec;
      if (!fields.ok() || !ToUnsigned((*fields)[0], &rec.worker) ||
          !ToUnsigned((*fields)[2], &rec.comparisons)) {
        return Status::DataLoss("vote log " + path_ + " corrupt" + at_hit +
                                ": malformed assignment entry");
      }
      rec.hit = hit;
      rec.duration_seconds = (*fields)[1];
      rec.by_spammer = (*fields)[3] != 0.0;
      out.assignments.push_back(rec);
      assignments_.push_back(rec);
      assignment_seconds_.push_back(rec.duration_seconds);
    }
  }

  hits_replayed_ += static_cast<uint32_t>(batch.num_hits());
  ticket_outstanding_ = false;
  pending_batch_ = nullptr;
  ++next_ticket_;
  return out;
}

Result<CrowdRunResult> RecordedCrowdBackend::Finish() {
  if (finished_) return Status::InvalidArgument("Finish called twice");
  if (ticket_outstanding_) {
    return Status::InvalidArgument("Finish with an unpolled HIT batch outstanding");
  }
  finished_ = true;
  std::string line;
  if (!NextLine(&line)) {
    return Status::DataLoss("vote log " + path_ +
                            " truncated: missing finish record after HIT " +
                            std::to_string(hits_replayed_ == 0 ? 0 : hits_replayed_ - 1));
  }
  auto parsed = JsonParser(line).Parse();
  if (!parsed.ok()) {
    return Status::DataLoss("vote log " + path_ + " corrupt finish record: " +
                            parsed.status().message());
  }
  const JsonValue* finish = parsed->Find("finish");
  if (finish == nullptr) {
    auto extra_hit = NumberField(*parsed, "hit");
    return Status::DataLoss(
        "vote log " + path_ + " mismatch: log continues past the run's last HIT" +
        (extra_hit.ok() ? " (next recorded HIT " + ExactDouble(*extra_hit) + ")" : ""));
  }

  CrowdRunResult stats;
  const auto count = [&](const std::string& key, auto* out) -> Status {
    CROWDER_ASSIGN_OR_RETURN(const double value, NumberField(*finish, key));
    if (!ToUnsigned(value, out)) {
      return Status::DataLoss("vote log " + path_ + " corrupt finish record: '" + key +
                              "' is not a count");
    }
    return Status::OK();
  };
  CROWDER_RETURN_NOT_OK(count("num_hits", &stats.num_hits));
  CROWDER_RETURN_NOT_OK(count("num_assignments", &stats.num_assignments));
  CROWDER_RETURN_NOT_OK(count("total_comparisons", &stats.total_comparisons));
  CROWDER_RETURN_NOT_OK(count("num_distinct_workers", &stats.num_distinct_workers));
  CROWDER_RETURN_NOT_OK(count("num_spammer_assignments", &stats.num_spammer_assignments));
  CROWDER_ASSIGN_OR_RETURN(stats.median_assignment_seconds,
                           NumberField(*finish, "median_assignment_seconds"));
  CROWDER_ASSIGN_OR_RETURN(stats.total_seconds, NumberField(*finish, "total_seconds"));
  CROWDER_ASSIGN_OR_RETURN(stats.cost_dollars, NumberField(*finish, "cost_dollars"));
  stats.assignments = std::move(assignments_);
  stats.assignment_seconds = std::move(assignment_seconds_);
  return stats;
}

}  // namespace crowd
}  // namespace crowder

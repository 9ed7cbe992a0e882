#include "crowd/vote_log.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"

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

// Narrows a log number to an unsigned id, count or (T = bool) 0/1 flag. A
// negative, fractional or out-of-range value is corruption: converting it
// would be undefined behaviour, not a wrapped value.
template <typename T>
bool ToUnsigned(double value, T* out) {
  if (!(value >= 0.0 && value < std::ldexp(1.0, std::numeric_limits<T>::digits)) ||
      std::trunc(value) != value) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

// The header line, written by Create and required verbatim by Open.
constexpr std::string_view kHeader = "{\"crowder_vote_log\":1}";

// Reads one log line in VoteLogWriter's own grammar: its literals in its
// order, numbers as std::from_chars reads what the writer printed, and
// lists whose items are separated by single commas. The first read that
// does not fit stops the cursor where it began; every later read fails
// too, and Departure() says where and what the grammar expected. Nothing
// recurses, so no line can exhaust the stack.
class Cursor {
 public:
  explicit Cursor(std::string_view line) : begin_(line.data()), rest_(line) {}

  // True while every read so far fit the grammar.
  bool ok() const { return ok_; }
  // True when every read fit and the whole line was consumed.
  bool AtEnd() const { return ok_ && rest_.empty(); }

  // Why the line is not one the writer emits (when !AtEnd()).
  std::string Departure() const {
    return "the line departs from the log's grammar at byte " +
           std::to_string(rest_.data() - begin_) + ", expecting " +
           (ok_ ? std::string("the end of the line") : expected_);
  }

  // True when the unread bytes start with `literal`; reads nothing.
  bool At(std::string_view literal) const {
    return ok_ && rest_.substr(0, literal.size()) == literal;
  }

  bool Take(std::string_view literal) {
    if (!At(literal)) return Fail("'" + std::string(literal) + "'");
    rest_.remove_prefix(literal.size());
    return true;
  }

  // A finite number.
  bool Number(double* out) {
    if (!ok_) return false;
    const auto [end, ec] = std::from_chars(rest_.data(), rest_.data() + rest_.size(), *out);
    if (ec != std::errc() || !std::isfinite(*out)) return Fail("a finite number");
    rest_.remove_prefix(static_cast<size_t>(end - rest_.data()));
    return true;
  }

  // A number that is exactly a T: an id, a count, or (T = bool) a 0/1 flag.
  template <typename T>
  bool Count(T* out) {
    const std::string_view at = rest_;
    double value = 0.0;
    if (!Number(&value)) return false;
    if (ToUnsigned(value, out)) return true;
    rest_ = at;
    return Fail(std::is_same_v<T, bool> ? "0 or 1" : "a non-negative integer that fits its field");
  }

  // `[]` or `[item,...,item]`; item() reads one element and returns ok().
  template <typename Item>
  bool List(Item item) {
    if (!Take("[")) return false;
    if (TakeIf(']')) return true;
    do {
      if (!item()) return false;
    } while (TakeIf(','));
    return Take("]");
  }

 private:
  bool TakeIf(char c) {
    const bool taken = ok_ && !rest_.empty() && rest_.front() == c;
    if (taken) rest_.remove_prefix(1);
    return taken;
  }

  bool Fail(std::string expected) {
    if (ok_) expected_ = std::move(expected);
    ok_ = false;
    return false;
  }

  const char* begin_;
  std::string_view rest_;
  bool ok_ = true;
  std::string expected_;  // what the first failed read expected
};

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
  writer->out_ << kHeader << "\n";
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
  std::string line;
  if (!std::getline(in, line)) return Status::DataLoss("vote log is empty: " + path);
  if (line != kHeader) {
    return Status::DataLoss("not a crowder vote log (bad header line): " + path);
  }
  return std::unique_ptr<RecordedCrowdBackend>(new RecordedCrowdBackend(path, std::move(in)));
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
    const auto fail = [&](const std::string& kind, const std::string& what) {
      return Status::DataLoss("vote log " + path_ + " " + kind + " at HIT " +
                              std::to_string(hit) + ": " + what);
    };
    std::string line;
    if (!std::getline(in_, line)) {
      return fail("truncated", "log ended with the HIT batch still pending");
    }
    if (StartsWith(line, "{\"finish\":")) {
      return fail("truncated", "finish record reached but the run generated more HITs");
    }
    Cursor in(line);
    uint32_t recorded_hit = 0;
    if (in.Take("{\"hit\":") && in.Count(&recorded_hit) && recorded_hit != hit) {
      return fail("mismatch", "recorded line carries HIT index " + std::to_string(recorded_hit));
    }

    // The recorded HIT identity must be the generated one — a log recorded
    // from a different configuration (threshold, k, seed...) fails here.
    const bool pair_hit = batch.pair_hits != nullptr;
    if (in.At(pair_hit ? ",\"records\":" : ",\"pairs\":")) {
      return fail("mismatch", std::string("recorded a ") + (pair_hit ? "cluster" : "pair") +
                                  " HIT where the run generated a " +
                                  (pair_hit ? "pair" : "cluster") + " HIT");
    }
    bool same = true;
    size_t read = 0;
    if (pair_hit) {
      const auto& edges = (*batch.pair_hits)[i].pairs;
      in.Take(",\"pairs\":") && in.List([&] {
        graph::Edge e;
        if (!(in.Take("[") && in.Count(&e.a) && in.Take(",") && in.Count(&e.b) && in.Take("]"))) {
          return false;
        }
        same = same && read < edges.size() && edges[read].a == e.a && edges[read].b == e.b;
        ++read;
        return true;
      });
      if (in.ok() && !(same && read == edges.size())) {
        return fail("mismatch", "recorded pairs differ from the generated HIT");
      }
    } else {
      const auto& records = (*batch.cluster_hits)[i].records;
      in.Take(",\"records\":") && in.List([&] {
        uint32_t record = 0;
        if (!in.Count(&record)) return false;
        same = same && read < records.size() && records[read] == record;
        ++read;
        return true;
      });
      if (in.ok() && !(same && read == records.size())) {
        return fail("mismatch", "recorded records differ from the generated HIT");
      }
    }

    HitVotes hv;
    hv.hit = hit;
    in.Take(",\"votes\":") && in.List([&] {
      PairVote pv;
      if (!(in.Take("[") && in.Count(&pv.a) && in.Take(",") && in.Count(&pv.b) && in.Take(",") &&
            in.Count(&pv.vote.worker_id) && in.Take(",") && in.Count(&pv.vote.says_match) &&
            in.Take("]"))) {
        return false;
      }
      hv.votes.push_back(pv);
      return true;
    });
    in.Take(",\"assignments\":") && in.List([&] {
      AssignmentRecord rec;
      rec.hit = hit;
      if (!(in.Take("[") && in.Count(&rec.worker) && in.Take(",") &&
            in.Number(&rec.duration_seconds) && in.Take(",") && in.Count(&rec.comparisons) &&
            in.Take(",") && in.Count(&rec.by_spammer) && in.Take("]"))) {
        return false;
      }
      out.assignments.push_back(rec);
      return true;
    });
    in.Take("}");
    if (!in.AtEnd()) return fail("corrupt", in.Departure());
    for (const PairVote& pv : hv.votes) {
      if (context_keys.count(PairKey(pv.a, pv.b)) == 0) {
        return fail("corrupt", "recorded vote names pair (" + std::to_string(pv.a) + "," +
                                   std::to_string(pv.b) +
                                   ") outside the batch's candidate context");
      }
    }
    out.hit_votes.push_back(std::move(hv));
  }

  for (const AssignmentRecord& rec : out.assignments) stats_.Add(rec);
  stats_.num_hits += static_cast<uint32_t>(batch.num_hits());
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
  if (!std::getline(in_, line)) {
    return Status::DataLoss("vote log " + path_ +
                            " truncated: missing finish record after HIT " +
                            std::to_string(stats_.num_hits == 0 ? 0 : stats_.num_hits - 1));
  }
  if (StartsWith(line, "{\"hit\":")) {
    return Status::DataLoss("vote log " + path_ +
                            " mismatch: log continues past the run's last HIT (" +
                            std::to_string(stats_.num_hits) + " HITs replayed)");
  }

  // The counts and the median follow from the replayed assignments; the
  // finish record must agree with them and supplies the platform's
  // latency and cost.
  CrowdRunResult recorded;
  Cursor in(line);
  in.Take("{\"finish\":{\"num_hits\":") && in.Count(&recorded.num_hits) &&
      in.Take(",\"num_assignments\":") && in.Count(&recorded.num_assignments) &&
      in.Take(",\"total_comparisons\":") && in.Count(&recorded.total_comparisons) &&
      in.Take(",\"num_distinct_workers\":") && in.Count(&recorded.num_distinct_workers) &&
      in.Take(",\"num_spammer_assignments\":") && in.Count(&recorded.num_spammer_assignments) &&
      in.Take(",\"median_assignment_seconds\":") &&
      in.Number(&recorded.median_assignment_seconds) && in.Take(",\"total_seconds\":") &&
      in.Number(&recorded.total_seconds) && in.Take(",\"cost_dollars\":") &&
      in.Number(&recorded.cost_dollars) && in.Take("}}");
  if (!in.AtEnd()) {
    return Status::DataLoss("vote log " + path_ + " corrupt finish record: " + in.Departure());
  }
  stats_.Seal();
  if (recorded.num_hits != stats_.num_hits ||
      recorded.num_assignments != stats_.num_assignments ||
      recorded.total_comparisons != stats_.total_comparisons ||
      recorded.num_distinct_workers != stats_.num_distinct_workers ||
      recorded.num_spammer_assignments != stats_.num_spammer_assignments ||
      recorded.median_assignment_seconds != stats_.median_assignment_seconds) {
    return Status::DataLoss("vote log " + path_ +
                            " mismatch: the finish record's counts disagree with the replayed "
                            "HITs");
  }
  stats_.total_seconds = recorded.total_seconds;
  stats_.cost_dollars = recorded.cost_dollars;
  return std::move(stats_);
}

}  // namespace crowd
}  // namespace crowder

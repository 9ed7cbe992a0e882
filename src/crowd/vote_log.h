/// \file
/// \brief The JSONL vote log: recording a crowd run for exact replay.
///
/// A vote log captures everything a crowd returned — per HIT: the HIT's
/// identity (its pairs or records), every vote in cast order, and the
/// assignment records — plus a trailing finish record with the run's
/// statistics. `VoteLogWriter` produces the format (usually as
/// `SimulatedCrowdBackend`'s tee); `RecordedCrowdBackend` replays it as a
/// `crowd::CrowdBackend`, reproducing the ranked workflow output byte for
/// byte without simulating anything.
///
/// Format: one JSON object per line, each line exactly as the writer
/// prints it:
///
///     {"crowder_vote_log":1}                                   // header
///     {"hit":0,"pairs":[[1,5],[2,7]],
///      "votes":[[1,5,3,1],[2,7,4,0]],                          // [a,b,worker,match]
///      "assignments":[[3,12.25,2,0],[4,13.5,2,0]]}             // [worker,secs,comparisons,spammer]
///     {"hit":1,"records":[4,8,9],"votes":[...],                // cluster HIT
///      "assignments":[...]}
///     {"finish":{"num_hits":2,"num_assignments":...,"total_comparisons":...,
///       "num_distinct_workers":...,"num_spammer_assignments":...,
///       "median_assignment_seconds":...,"total_seconds":...,"cost_dollars":...}}
///
/// (Each record is one line; the long ones are wrapped here.) The grammar is
/// the writer's: the header verbatim; per HIT the keys `hit`, then `pairs`
/// or `records`, then `votes`, then `assignments`; the finish record's keys
/// in the order above; no whitespace anywhere and nothing after the closing
/// brace. Ids, counts and flags are numbers whose value is a non-negative
/// integer that fits the field, the match and spammer flags 0 or 1; durations and the finish
/// record's seconds and dollars are finite numbers. The replay reads
/// exactly that and rejects everything else as `kDataLoss`: blank lines,
/// whitespace, reordered, missing or extra keys, a flag other than 0 or 1,
/// trailing bytes, and a finish record whose counts or median disagree
/// with the replayed HITs.
///
/// Doubles are printed with std::to_chars (shortest round-trip form,
/// locale-independent) and parsed with std::from_chars, so every finite
/// IEEE-754 value round-trips exactly — replayed assignment durations and
/// statistics are bitwise the recorded ones, regardless of the embedding
/// process's locale. Because lines are keyed by *global HIT index*
/// and HIT identity, a log records the HIT sequence, not the round
/// partitioning: a run recorded under one partition capacity (or execution
/// mode) replays under any other, as long as the generated HIT sequence is
/// identical — which the workflow's byte-identity contract guarantees.
///
/// Replay failures are `StatusCode::kDataLoss`. Inside a HIT line they name
/// the HIT index and the kind of failure: truncated (the log ends, or
/// reaches its finish record, before the run's last HIT), mismatch (the
/// recorded index or identity differs from the generated HIT), corrupt
/// (the line departs from the grammar, at a named byte, or a vote names a
/// pair outside the batch's context). A missing finish record is reported
/// as one.
#ifndef CROWDER_CROWD_VOTE_LOG_H_
#define CROWDER_CROWD_VOTE_LOG_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "crowd/backend.h"

namespace crowder {
namespace crowd {

/// \brief Appends crowd responses to a JSONL vote log.
///
/// Lifecycle: Create → WriteBatch per answered HitBatch (in HIT order) →
/// WriteFinish once → Close. `SimulatedCrowdBackend` drives the first two
/// when installed as its tee; the owner must still Close (which flushes and
/// surfaces any deferred I/O error).
class VoteLogWriter {
 public:
  /// \brief Opens `path` for writing (truncating) and writes the header
  /// line.
  static Result<std::unique_ptr<VoteLogWriter>> Create(const std::string& path);

  /// \brief Appends one line per HIT of `batch`, pairing each HIT's
  /// identity from `hits` with its votes and assignment records from
  /// `votes`.
  Status WriteBatch(const HitBatch& hits, const VoteBatch& votes);

  /// \brief Appends the finish record carrying the run statistics.
  Status WriteFinish(const CrowdRunResult& stats);

  /// \brief Flushes and closes; returns the first I/O error, if any.
  /// Terminal.
  Status Close();

  /// \brief Log path (for reports).
  const std::string& path() const { return path_; }

 private:
  VoteLogWriter(std::string path, std::ofstream out);

  std::string path_;
  std::ofstream out_;
  bool closed_ = false;
  /// A write failed (I/O or an out-of-order VoteBatch): the log on disk may
  /// be partial, so every later Write*/Close reports the log as incomplete
  /// rather than sealing it (the failed_ latch discipline).
  bool failed_ = false;
};

/// \brief Replays a recorded vote log as a crowd.
///
/// The backend streams the log (bounded memory): each posted batch consumes
/// the next `batch.num_hits()` lines, verifying per HIT that the recorded
/// global index and identity (pairs / records) match the generated HIT —
/// any divergence is a `kDataLoss` error naming the HIT index. Finish
/// requires the finish record and returns the replayed assignment trail
/// with its counts and median, which the record must repeat, and the
/// recorded latency and cost.
class RecordedCrowdBackend : public CrowdBackend {
 public:
  /// \brief Opens `path` and validates the header line.
  static Result<std::unique_ptr<RecordedCrowdBackend>> Open(const std::string& path);

  Result<Ticket> Post(const HitBatch& batch) override;
  Result<VoteBatch> Poll(Ticket ticket) override;
  Result<CrowdRunResult> Finish() override;

 private:
  RecordedCrowdBackend(std::string path, std::ifstream in);

  std::string path_;
  std::ifstream in_;
  const HitBatch* pending_batch_ = nullptr;  // non-owning; valid until Poll
  Ticket next_ticket_ = 0;
  bool ticket_outstanding_ = false;
  bool finished_ = false;
  /// The replayed HITs and assignment trail; Finish completes it.
  CrowdRunResult stats_;
};

}  // namespace crowd
}  // namespace crowder

#endif  // CROWDER_CROWD_VOTE_LOG_H_

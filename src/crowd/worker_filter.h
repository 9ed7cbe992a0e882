// The defense half of the adversarial crowd model: admission filtering on
// the behavioural statistics a platform actually has — approval rate
// against the crowd's own majority and time spent working — in the shape of
// real AMT requester scripts (reject workers whose lifetime approval rate
// falls below a floor). The built-in filter judges approval rate; custom
// filters see the work time too.
//
// The filter is consulted by core::WorkflowDriver between rounds; a ban is
// cumulative and retroactive: every vote the banned worker ever cast is
// excluded when decisions are (re-)derived at aggregation, which is what
// makes the filter a *revision* mechanism rather than a gate — see
// docs/ARCHITECTURE.md.
#ifndef CROWDER_CROWD_WORKER_FILTER_H_
#define CROWDER_CROWD_WORKER_FILTER_H_

#include <cstdint>
#include <vector>

namespace crowder {
namespace crowd {

/// \brief Lifetime behavioural statistics of one worker, accumulated by the
/// driver across every answered round. No ground truth in here — approval
/// is measured against the per-pair majority of each round's votes, which
/// is all a real platform can observe.
struct WorkerStats {
  uint32_t worker = 0;
  /// Votes the worker cast so far.
  uint32_t num_votes = 0;
  /// Votes agreeing with the round's per-pair majority (ties count as
  /// agreement: a split pair is evidence about the pair, not the worker).
  uint32_t num_agreements = 0;
  /// Completed assignments so far.
  uint32_t num_assignments = 0;
  /// Total seconds spent across those assignments.
  double work_seconds = 0.0;

  /// \brief Agreement with the crowd majority (1.0 before any votes).
  double ApprovalRate() const {
    return num_votes == 0 ? 1.0
                          : static_cast<double>(num_agreements) / static_cast<double>(num_votes);
  }
  /// \brief Mean seconds per completed assignment (0 before any).
  double MeanAssignmentSeconds() const {
    return num_assignments == 0 ? 0.0 : work_seconds / static_cast<double>(num_assignments);
  }
};

/// \brief Pluggable between-rounds admission filter. The driver calls
/// Review after each answered round with the lifetime stats of every worker
/// seen so far (ascending worker id — determinism is the caller's
/// contract); the returned ids are banned from aggregation. Bans are
/// cumulative; returning an already-banned id is harmless.
class WorkerFilter {
 public:
  virtual ~WorkerFilter() = default;  ///< virtual for interface use

  /// \brief Returns the worker ids to ban, judged from `stats`.
  virtual std::vector<uint32_t> Review(const std::vector<WorkerStats>& stats) = 0;
};

/// \brief The built-in filter: bans workers whose lifetime approval rate
/// falls below kMinApprovalRate once they have cast kMinVotes votes. The
/// thresholds follow the requester-script convention (AMT requesters
/// routinely demand >= 95% platform approval): ban well below honest-worker
/// agreement, never judge a worker before a minimum body of evidence.
/// Honest workers agree with the majority ~90%+ of the time even in a
/// heavily adversarial pool (the majority is mostly honest and the pairs
/// are mostly easy); answer-blind archetypes land in the 0.4-0.8 band, so
/// 0.8 separates them. Other thresholds are another WorkerFilter, installed
/// through core::WorkflowDriver::SetWorkerFilter.
class ApprovalRateWorkerFilter : public WorkerFilter {
 public:
  /// Ban when ApprovalRate() falls below this.
  static constexpr double kMinApprovalRate = 0.8;
  /// Votes required before the approval criterion applies (too few votes
  /// and an honest worker unlucky on hard pairs gets banned).
  static constexpr uint32_t kMinVotes = 6;

  std::vector<uint32_t> Review(const std::vector<WorkerStats>& stats) override;
};

}  // namespace crowd
}  // namespace crowder

#endif  // CROWDER_CROWD_WORKER_FILTER_H_

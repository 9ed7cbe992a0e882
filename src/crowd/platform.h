// The crowdsourcing platform simulator standing in for Amazon Mechanical
// Turk: publishes HITs, replicates each into distinct-worker assignments,
// optionally gates workers behind a qualification test, produces per-pair
// votes for aggregation, and simulates per-assignment durations plus the
// wall-clock time until every assignment completes (worker arrival process).
#ifndef CROWDER_CROWD_PLATFORM_H_
#define CROWDER_CROWD_PLATFORM_H_

#include <cstdint>
#include <vector>

#include "aggregate/votes.h"
#include "common/result.h"
#include "common/rng.h"
#include "crowd/crowd_model.h"
#include "crowd/worker.h"
#include "hitgen/hit.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace crowd {

/// \brief Ground truth + machine likelihood context a run needs.
struct CrowdContext {
  /// Candidate pairs (the surviving set P), with machine likelihoods.
  /// Vote output is aligned with this list.
  const std::vector<similarity::ScoredPair>* pairs = nullptr;
  /// Ground-truth entity id per record (indexed by record id).
  const std::vector<uint32_t>* entity_of = nullptr;
};

/// \brief One completed assignment, for auditing and latency analysis.
struct AssignmentRecord {
  uint32_t hit = 0;
  uint32_t worker = 0;  ///< pool worker id (answer provenance)
  double duration_seconds = 0.0;
  uint64_t comparisons = 0;
  /// True when the assignee is answer-blind (spammer, colluder, or sleeper).
  bool by_spammer = false;
};

/// \brief Everything a crowd run produces.
///
/// Producers file each completed assignment once, with Add, and call Seal
/// when the run ends; the counts and the median derive from `assignments`.
struct CrowdRunResult {
  /// votes[i] = worker votes on (*context.pairs)[i]. Pairs not covered by
  /// any HIT have no votes.
  aggregate::VoteTable votes;
  /// Audit trail: one record per completed assignment, in publish order.
  std::vector<AssignmentRecord> assignments;
  double median_assignment_seconds = 0.0;
  /// Wall-clock seconds until the last assignment completed, under the
  /// worker-arrival model.
  double total_seconds = 0.0;
  double cost_dollars = 0.0;
  uint32_t num_hits = 0;
  uint32_t num_assignments = 0;
  uint64_t total_comparisons = 0;
  uint32_t num_distinct_workers = 0;
  uint32_t num_spammer_assignments = 0;

  /// Files one completed assignment and counts its comparisons and, when a
  /// spammer did it, the spammer assignment.
  void Add(const AssignmentRecord& record);
  /// Sets num_assignments, num_distinct_workers and
  /// median_assignment_seconds from the filed assignments.
  void Seal();
};

/// \brief The simulated platform. Deterministic given (model, seed).
///
/// Construction builds the worker pool and runs the optional qualification
/// gate. HIT simulation itself lives in SimulatedCrowdBackend
/// (crowd/backend.h) — every HIT draws from an Rng derived from (seed,
/// global HIT index), so runs are bitwise-identical at any batch partition
/// and thread count. The Run*Hits entry points below are one-batch runs of
/// that backend, with the votes folded into a table aligned to the
/// context's pair list.
class CrowdPlatform {
 public:
  CrowdPlatform(const CrowdModel& model, uint64_t seed);

  /// Publishes pair-based HITs and collects all assignments.
  Result<CrowdRunResult> RunPairHits(const std::vector<hitgen::PairBasedHit>& hits,
                                     const CrowdContext& context) const;

  /// Publishes cluster-based HITs. Workers label the records entity by
  /// entity (the §6 procedure); pairwise votes are derived from the final
  /// labels for every candidate pair inside the HIT.
  Result<CrowdRunResult> RunClusterHits(const std::vector<hitgen::ClusterBasedHit>& hits,
                                        const CrowdContext& context) const;

  /// The checks a platform must pass before it answers HITs: the model's
  /// fields (ValidateCrowdModel, naming the offending one) and pool
  /// feasibility — at least assignments_per_hit eligible workers. The
  /// constructor cannot return a Status, so every consumer calls this.
  Status Validate() const;

  /// Workers who passed the gate (all workers when the qualification test is
  /// off). Exposed for tests.
  const std::vector<uint32_t>& eligible_workers() const { return eligible_; }

  /// The frozen worker pool (answer provenance indexes into this).
  const std::vector<Worker>& workers() const { return workers_; }

  const CrowdModel& model() const { return model_; }

  /// The seed HIT streams derive from (see crowd/backend.h).
  uint64_t seed() const { return seed_; }

 private:
  CrowdModel model_;
  uint64_t seed_;
  std::vector<Worker> workers_;
  std::vector<uint32_t> eligible_;
};

}  // namespace crowd
}  // namespace crowder

#endif  // CROWDER_CROWD_PLATFORM_H_

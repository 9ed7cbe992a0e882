// AsyncCrowdBackend: the hostile-transport adapter. Wraps any synchronous
// CrowdBackend and re-delivers its answers the way a real platform does —
// out of order and in partial batches — so the driver seam can be tested
// (and hardened) against asynchrony without a live crowd.
#ifndef CROWDER_CROWD_ASYNC_BACKEND_H_
#define CROWDER_CROWD_ASYNC_BACKEND_H_

#include <cstdint>
#include <vector>

#include "crowd/backend.h"

namespace crowder {
namespace crowd {

/// \brief Construction knobs for AsyncCrowdBackend.
struct AsyncCrowdOptions {
  /// Most HIT deliveries one Poll returns (>= 1). Smaller values mean more
  /// partial batches per round.
  uint32_t hits_per_poll = 2;
};

/// \brief Delivers a wrapped backend's answers asynchronously: Post obtains
/// the round's full answer from the inner backend, assigns every HIT a
/// completion time under the crowd model's arrival/duration model (workers
/// trickle in Poisson-style; a HIT's votes land when its slowest assignment
/// finishes), and Poll then returns the HITs in *completion order* —
/// generally out of HIT order — a few at a time, with `complete = false`
/// until the last delivery.
///
/// Deterministic given (model, seed, batch): arrival draws come from an Rng
/// derived per round, never from wall clock. The *set* of votes equals the
/// inner backend's exactly; only delivery order and batching differ — which
/// is why an async run's aggregate decisions match a synchronous run's under
/// order-insensitive aggregation, and why the driver must file each HIT
/// exactly once (it rejects re-deliveries by name).
///
/// Finish() forwards to the inner backend and fails while undelivered
/// votes remain.
class AsyncCrowdBackend : public CrowdBackend {
 public:
  /// \brief Wraps `inner` (not owned; must outlive this adapter). `model`
  /// supplies the arrival-time model, `seed` the deterministic stream.
  AsyncCrowdBackend(CrowdBackend* inner, const CrowdModel& model, uint64_t seed,
                    AsyncCrowdOptions options = {});

  Result<Ticket> Post(const HitBatch& batch) override;
  Result<VoteBatch> Poll(Ticket ticket) override;
  Result<CrowdRunResult> Finish() override;

 private:
  /// One HIT's votes + assignments, tagged with its completion time.
  struct Delivery {
    double arrival_seconds = 0.0;
    HitVotes votes;
    std::vector<AssignmentRecord> assignments;
  };

  CrowdBackend* inner_;
  CrowdModel model_;
  uint64_t seed_;
  AsyncCrowdOptions options_;

  std::vector<Delivery> deliveries_;  ///< completion order
  size_t next_delivery_ = 0;
  Ticket ticket_ = 0;
  bool ticket_outstanding_ = false;
};

}  // namespace crowd
}  // namespace crowder

#endif  // CROWDER_CROWD_ASYNC_BACKEND_H_

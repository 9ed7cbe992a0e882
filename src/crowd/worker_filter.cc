#include "crowd/worker_filter.h"

namespace crowder {
namespace crowd {

std::vector<uint32_t> ApprovalRateWorkerFilter::Review(const std::vector<WorkerStats>& stats) {
  std::vector<uint32_t> banned;
  for (const WorkerStats& w : stats) {
    if (w.num_votes >= kMinVotes && w.ApprovalRate() < kMinApprovalRate) {
      banned.push_back(w.worker);
    }
  }
  return banned;
}

}  // namespace crowd
}  // namespace crowder

#include "aggregate/agreement.h"

#include <algorithm>

namespace crowder {
namespace aggregate {

double FleissKappa(const std::vector<uint32_t>& yes_counts,
                   const std::vector<uint32_t>& total_counts) {
  double sum_pi = 0.0;
  uint64_t subjects = 0;
  uint64_t yes_total = 0;
  uint64_t all_total = 0;
  for (size_t i = 0; i < total_counts.size(); ++i) {
    const uint64_t n = total_counts[i];
    if (n < 2) continue;  // one vote carries no pairwise agreement
    const uint64_t yes = yes_counts[i];
    const uint64_t no = n - yes;
    // P_i: fraction of rater pairs on this subject that agree.
    sum_pi += static_cast<double>(yes * (yes - 1) + no * (no - 1)) /
              static_cast<double>(n * (n - 1));
    ++subjects;
    yes_total += yes;
    all_total += n;
  }
  if (subjects == 0) return 1.0;
  const double p_bar = sum_pi / static_cast<double>(subjects);
  const double p_yes = static_cast<double>(yes_total) / static_cast<double>(all_total);
  const double p_e = p_yes * p_yes + (1.0 - p_yes) * (1.0 - p_yes);
  if (1.0 - p_e < 1e-12) return 1.0;  // every vote in one category
  return (p_bar - p_e) / (1.0 - p_e);
}

void RemoveVotesFrom(VoteTable* votes, const std::unordered_set<uint32_t>& banned) {
  if (banned.empty()) return;
  for (std::vector<Vote>& pair_votes : *votes) {
    pair_votes.erase(std::remove_if(pair_votes.begin(), pair_votes.end(),
                                    [&](const Vote& v) { return banned.count(v.worker_id) > 0; }),
                     pair_votes.end());
  }
}

}  // namespace aggregate
}  // namespace crowder

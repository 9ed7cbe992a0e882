// Inter-rater agreement over crowd votes: Fleiss' kappa generalized to
// subjects with varying numbers of raters. The workflow computes it per
// crowd round — a collapse in agreement is the cheapest online signal that
// spammers or colluders entered the pool, because it needs no ground truth.
#ifndef CROWDER_AGGREGATE_AGREEMENT_H_
#define CROWDER_AGGREGATE_AGREEMENT_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "aggregate/votes.h"

namespace crowder {
namespace aggregate {

/// \brief Fleiss' kappa over binary (yes/no) subjects. `yes_counts[i]` /
/// `total_counts[i]` are the yes votes and total votes on subject *i*.
///
/// Uses the unequal-raters generalization: subjects with fewer than two
/// votes carry no agreement information and are skipped; the chance
/// agreement P_e uses the pooled category proportions of the remaining
/// subjects. Returns 1.0 when agreement is degenerate-perfect (no eligible
/// subjects, or every vote in one category, where 1 - P_e vanishes);
/// otherwise (P_bar - P_e) / (1 - P_e), which is negative when raters agree
/// less than chance — the signature of independent spammers.
double FleissKappa(const std::vector<uint32_t>& yes_counts,
                   const std::vector<uint32_t>& total_counts);

/// \brief Removes every vote cast by a worker in `banned` (order of the
/// surviving votes is preserved). The in-memory statement of the revision
/// path — dropping a worker re-derives every affected pair's decision from
/// the surviving votes, instead of patching decisions incrementally — and
/// the reference the workflow's FilteredVoteShardSource is tested against.
void RemoveVotesFrom(VoteTable* votes, const std::unordered_set<uint32_t>& banned);

}  // namespace aggregate
}  // namespace crowder

#endif  // CROWDER_AGGREGATE_AGREEMENT_H_

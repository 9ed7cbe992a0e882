#include "crowd/platform.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "crowd/backend.h"

namespace crowder {
namespace crowd {

void CrowdRunResult::Add(const AssignmentRecord& record) {
  assignments.push_back(record);
  total_comparisons += record.comparisons;
  if (record.by_spammer) ++num_spammer_assignments;
}

void CrowdRunResult::Seal() {
  num_assignments = static_cast<uint32_t>(assignments.size());
  std::vector<uint32_t> workers;
  std::vector<double> durations;
  workers.reserve(assignments.size());
  durations.reserve(assignments.size());
  for (const AssignmentRecord& record : assignments) {
    workers.push_back(record.worker);
    durations.push_back(record.duration_seconds);
  }
  std::sort(workers.begin(), workers.end());
  num_distinct_workers =
      static_cast<uint32_t>(std::unique(workers.begin(), workers.end()) - workers.begin());
  median_assignment_seconds = AssignmentMedianSeconds(std::move(durations));
}

CrowdPlatform::CrowdPlatform(const CrowdModel& model, uint64_t seed)
    : model_(model), seed_(seed) {
  // The pool (types, speeds, per-worker streams) and the qualification gate
  // are built from a dedicated stream so they depend only on (model, seed).
  Rng rng(seed);
  workers_ = MakeWorkerPool(model_, &rng);
  if (model_.qualification_test) {
    // The test pairs are two clear matches/non-matches and one moderately
    // ambiguous pair: spammers coin-flip all of them and rarely pass;
    // honest workers nearly always do.
    std::vector<bool> truths;
    std::vector<double> likelihoods;
    for (uint32_t i = 0; i < model_.qualification_pairs; ++i) {
      truths.push_back(i % 2 == 0);
      likelihoods.push_back(i + 1 == model_.qualification_pairs ? 0.55 : (i % 2 == 0 ? 0.9 : 0.05));
    }
    for (Worker& w : workers_) {
      if (w.TakeQualificationTest(truths, likelihoods, model_)) {
        eligible_.push_back(w.id());
      }
    }
  } else {
    for (const Worker& w : workers_) eligible_.push_back(w.id());
  }
}

Status CrowdPlatform::Validate() const {
  CROWDER_RETURN_NOT_OK(ValidateCrowdModel(model_));
  if (eligible_.size() < model_.assignments_per_hit) {
    return Status::Infeasible("only " + std::to_string(eligible_.size()) +
                              " eligible workers; need " +
                              std::to_string(model_.assignments_per_hit) +
                              " distinct workers per HIT");
  }
  return Status::OK();
}

namespace {

// One batch through the simulator (whose pool, a pure function of (model,
// seed), is this platform's), its per-HIT votes folded into the table
// aligned to the context's pair list.
Result<CrowdRunResult> RunOneBatch(const CrowdPlatform& platform, const CrowdContext& context,
                                   HitBatch batch) {
  if (context.pairs == nullptr || context.entity_of == nullptr) {
    return Status::InvalidArgument("CrowdContext pairs/entity_of must be set");
  }
  CROWDER_ASSIGN_OR_RETURN(
      auto backend,
      SimulatedCrowdBackend::Create(platform.model(), platform.seed(), *context.entity_of));
  batch.pairs = context.pairs;
  VoteBatch votes;
  if (!batch.empty()) {
    CROWDER_ASSIGN_OR_RETURN(const Ticket ticket, backend->Post(batch));
    CROWDER_ASSIGN_OR_RETURN(votes, backend->Poll(ticket));
  }
  CROWDER_ASSIGN_OR_RETURN(CrowdRunResult result, backend->Finish());

  const std::vector<similarity::ScoredPair>& pairs = *context.pairs;
  std::unordered_map<uint64_t, size_t> index_of;
  index_of.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) index_of[PairKey(pairs[i].a, pairs[i].b)] = i;
  result.votes.assign(pairs.size(), {});
  for (const HitVotes& hit : votes.hit_votes) {
    for (const PairVote& pv : hit.votes) {
      result.votes[index_of[PairKey(pv.a, pv.b)]].push_back(pv.vote);
    }
  }
  return result;
}

}  // namespace

Result<CrowdRunResult> CrowdPlatform::RunPairHits(const std::vector<hitgen::PairBasedHit>& hits,
                                                  const CrowdContext& context) const {
  HitBatch batch;
  batch.pair_hits = &hits;
  return RunOneBatch(*this, context, batch);
}

Result<CrowdRunResult> CrowdPlatform::RunClusterHits(
    const std::vector<hitgen::ClusterBasedHit>& hits, const CrowdContext& context) const {
  HitBatch batch;
  batch.cluster_hits = &hits;
  return RunOneBatch(*this, context, batch);
}

}  // namespace crowd
}  // namespace crowder

#include "serve/pair_crowd.h"

namespace crowder {
namespace serve {

PairJudgement JudgePair(const crowd::CrowdPlatform& platform, uint32_t a, uint32_t b,
                        double score, bool truth) {
  const crowd::CrowdModel& model = platform.model();
  Rng rng = crowd::DeriveRng(platform.seed(), crowd::PairKey(a, b));
  const std::vector<uint32_t> assignees =
      crowd::PickWorkersFrom(platform.eligible_workers(), model.assignments_per_hit, &rng);
  const double hardness = crowd::PairHardness(a, b);
  PairJudgement judgement;
  judgement.votes.reserve(assignees.size());
  judgement.durations.reserve(assignees.size());
  for (uint32_t wid : assignees) {
    const crowd::Worker& worker = platform.workers()[wid];
    judgement.votes.push_back({wid, worker.AnswerPairWith(&rng, truth, score, hardness, model)});
    judgement.durations.push_back(model.base_seconds +
                                  model.pair_comparison_seconds * worker.speed_factor());
  }
  return judgement;
}

}  // namespace serve
}  // namespace crowder

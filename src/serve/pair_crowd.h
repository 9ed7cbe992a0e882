// The serving stack's crowd simulation: a verdict function whose every
// random draw is seeded per *pair* instead of per HIT.
//
// Why a separate verdict function: the batch simulator
// (crowd::SimulatedCrowdBackend) derives one Rng per (seed, global HIT
// index), which makes batch boundaries invisible but HIT *membership*
// visible — repack the same pairs into different HITs and the votes change.
// A resident service discovers pairs one record at a time and packs whatever
// is pending when a round flushes, so its packing depends on arrival timing.
// Deriving the Rng from (seed, PairKey(a, b)) instead makes the verdict on a
// pair a pure function of (model, seed, pair, truth, hardness) — packing,
// flush size, round boundaries, and delivery order all become invisible,
// which is exactly the property the incremental-vs-batch bitwise-equality
// contract needs (both paths ask the same pairs, so they get the same
// votes). The service answers its rounds through a crowd::CallbackCrowdBackend
// over JudgePair.
//
// Worker pool, eligibility gating, hardness draws (crowd::PairHardness), and
// the per-worker answer model (Worker::AnswerPairWith) are all shared with
// the batch simulator — only the stream derivation differs.
#ifndef CROWDER_SERVE_PAIR_CROWD_H_
#define CROWDER_SERVE_PAIR_CROWD_H_

#include <cstdint>
#include <vector>

#include "crowd/backend.h"
#include "crowd/platform.h"

namespace crowder {
namespace serve {

/// \brief One pair's simulated judgement: the votes of the workers assigned
/// to it, in assignment order.
struct PairJudgement {
  /// The assigned workers' votes on the pair, in assignment order.
  std::vector<aggregate::Vote> votes;
  /// The workers' assignment durations (one per vote), seconds.
  std::vector<double> durations;
};

/// \brief Simulates the crowd's judgement of one pair — the shared verdict
/// primitive of both service paths. Pure function of (platform pool/model/
/// seed, pair ids, score, truth): derives Rng(seed, PairKey(a, b)), samples
/// `assignments_per_hit` distinct eligible workers, and has each answer via
/// Worker::AnswerPairWith against the pair's deterministic hardness.
PairJudgement JudgePair(const crowd::CrowdPlatform& platform, uint32_t a, uint32_t b,
                        double score, bool truth);

}  // namespace serve
}  // namespace crowder

#endif  // CROWDER_SERVE_PAIR_CROWD_H_

// Simulated crowd workers: reliable, noisy, spammer, colluder, and sleeper
// profiles with a difficulty-dependent error model and per-worker
// deterministic randomness.
#ifndef CROWDER_CROWD_WORKER_H_
#define CROWDER_CROWD_WORKER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "crowd/crowd_model.h"

namespace crowder {
namespace crowd {

enum class WorkerType { kReliable, kNoisy, kSpammer, kColluder, kSleeper };

/// \brief One simulated worker. Each worker owns an independent random
/// stream, so results do not depend on the order in which workers are asked.
class Worker {
 public:
  Worker(uint32_t id, WorkerType type, double speed_factor, Rng rng, uint64_t policy_seed = 0)
      : id_(id),
        type_(type),
        speed_factor_(speed_factor),
        rng_(std::move(rng)),
        policy_seed_(policy_seed) {}

  uint32_t id() const { return id_; }
  WorkerType type() const { return type_; }
  bool is_spammer() const { return type_ == WorkerType::kSpammer; }
  /// True for every archetype that answers without reading the records:
  /// independent spammers, colluding rings, and sleepers (post-admission).
  bool is_adversarial() const {
    return type_ == WorkerType::kSpammer || type_ == WorkerType::kColluder ||
           type_ == WorkerType::kSleeper;
  }
  /// Shared ring seed for colluders (0 for every other type).
  uint64_t policy_seed() const { return policy_seed_; }
  /// Multiplier on comparison time (1.0 = average worker).
  double speed_factor() const { return speed_factor_; }

  /// Answers "are these the same entity?" for a pair whose true answer is
  /// `truth`, machine likelihood `likelihood`, and intrinsic hardness draw
  /// `hardness_u` in [0,1] (see CrowdModel for the error model). Honest
  /// workers err with the difficulty-dependent probability; spammers ignore
  /// the records entirely. Draws from the worker's own stream.
  bool AnswerPair(bool truth, double likelihood, double hardness_u, const CrowdModel& model);

  /// Same decision rule, but drawing from a caller-provided stream instead of
  /// the worker's own. This is what makes per-HIT seed derivation possible:
  /// SimulatedCrowdBackend answers every pair of a HIT from that HIT's
  /// derived Rng, so a worker's answers do not depend on which other HITs
  /// they were assigned — the property that lets HIT batches simulate in
  /// parallel while staying bitwise-deterministic.
  bool AnswerPairWith(Rng* rng, bool truth, double likelihood, double hardness_u,
                      const CrowdModel& model) const;

  /// Simulates the §7.1 qualification test: `truths` are the correct answers
  /// of the test pairs, `likelihoods` their difficulty. Test pairs are
  /// curated to be unambiguous (hardness 0). Pass requires all answers
  /// correct.
  bool TakeQualificationTest(const std::vector<bool>& truths,
                             const std::vector<double>& likelihoods, const CrowdModel& model);

  /// The truth-conditional error probability this worker has on a pair
  /// (exposed for tests and for filters calibrated on worker behaviour).
  /// For answer-blind archetypes (spammer, sleeper, colluder) this is the
  /// actual error implied by their yes-rate — e.g. a spammer with
  /// spammer_yes_rate 0.55 errs with probability 0.45 on true matches and
  /// 0.55 on non-matches, not a flat 0.5.
  double ErrorProbability(bool truth, double likelihood, double hardness_u,
                          const CrowdModel& model) const;

 private:
  uint32_t id_;
  WorkerType type_;
  double speed_factor_;
  Rng rng_;
  uint64_t policy_seed_ = 0;
};

/// \brief Builds the worker pool for a platform run: `pool_size` workers with
/// the model's type mix, speeds, and forked random streams.
std::vector<Worker> MakeWorkerPool(const CrowdModel& model, Rng* rng);

}  // namespace crowd
}  // namespace crowder

#endif  // CROWDER_CROWD_WORKER_H_

#include "crowd/worker.h"

#include <algorithm>
#include <cmath>

namespace crowder {
namespace crowd {

namespace {

// The verdict of a colluding ring on a pair. hardness_u is already a
// deterministic per-pair fingerprint (shared by every worker and every run),
// so hashing its mantissa bits against the ring's policy seed yields the
// same yes/no for all ring members, independent of answer order, batch
// boundaries, and thread counts — and consumes nothing from the HIT's
// stream.
bool RingVerdict(uint64_t policy_seed, double hardness_u, double yes_rate) {
  uint64_t state = policy_seed ^ static_cast<uint64_t>(hardness_u * 0x1.0p53);
  const double u = static_cast<double>(SplitMix64(&state) >> 11) * 0x1.0p-53;
  return u < yes_rate;
}

}  // namespace

double Worker::ErrorProbability(bool truth, double likelihood, double hardness_u,
                                const CrowdModel& model) const {
  double base = 0.0;
  switch (type_) {
    case WorkerType::kReliable:
      base = model.reliable_base_error;
      break;
    case WorkerType::kNoisy:
      base = model.noisy_base_error;
      break;
    case WorkerType::kSpammer:
    case WorkerType::kSleeper:
      // Spam is answer-blind but not error-free 50/50: the worker says yes
      // with spammer_yes_rate regardless of the records, so the
      // truth-conditional error is 1 - yes_rate on true matches and
      // yes_rate on non-matches. (Sleepers spam identically once past the
      // qualification gate.)
      return truth ? 1.0 - model.spammer_yes_rate : model.spammer_yes_rate;
    case WorkerType::kColluder:
      // Marginally over pairs the ring policy says yes with
      // colluder_yes_rate, independent of the records.
      return truth ? 1.0 - model.colluder_yes_rate : model.colluder_yes_rate;
  }
  // Textually-divergent matches and textually-similar non-matches are the
  // hard cases for people; most pairs are easy (hardness_u^exponent shifts
  // the mass toward 0, and the squared trend keeps mid-similarity pairs
  // easy).
  const double linear = std::clamp(truth ? 1.0 - likelihood : likelihood, 0.0, 1.0);
  const double trend = linear * linear;
  const double hardness =
      std::pow(std::clamp(hardness_u, 0.0, 1.0), model.hardness_exponent) * trend;
  return std::min(0.5, base + model.hard_pair_gain * hardness);
}

bool Worker::AnswerPair(bool truth, double likelihood, double hardness_u,
                        const CrowdModel& model) {
  return AnswerPairWith(&rng_, truth, likelihood, hardness_u, model);
}

bool Worker::AnswerPairWith(Rng* rng, bool truth, double likelihood, double hardness_u,
                            const CrowdModel& model) const {
  if (type_ == WorkerType::kSpammer || type_ == WorkerType::kSleeper) {
    return rng->Bernoulli(model.spammer_yes_rate);
  }
  if (type_ == WorkerType::kColluder) {
    return RingVerdict(policy_seed_, hardness_u, model.colluder_yes_rate);
  }
  const double p_err = ErrorProbability(truth, likelihood, hardness_u, model);
  const bool err = rng->Bernoulli(p_err);
  return err ? !truth : truth;
}

bool Worker::TakeQualificationTest(const std::vector<bool>& truths,
                                   const std::vector<double>& likelihoods,
                                   const CrowdModel& model) {
  CROWDER_CHECK_EQ(truths.size(), likelihoods.size());
  // Sleepers exist to defeat this gate: they answer the curated test pairs
  // correctly on purpose, then degrade on real work. Rings coordinate on
  // gold questions the same way.
  if (type_ == WorkerType::kSleeper || type_ == WorkerType::kColluder) return true;
  for (size_t i = 0; i < truths.size(); ++i) {
    if (AnswerPair(truths[i], likelihoods[i], /*hardness_u=*/0.0, model) != truths[i]) {
      return false;
    }
  }
  return true;
}

std::vector<Worker> MakeWorkerPool(const CrowdModel& model, Rng* rng) {
  std::vector<Worker> pool;
  pool.reserve(model.pool_size);
  // Bucket thresholds stack reliable → noisy → colluder → sleeper →
  // spammer. The adversarial fractions default to 0, which collapses their
  // buckets; together with deriving ring seeds arithmetically (no extra
  // draws from `rng`), the default pool is bitwise identical to the
  // pre-adversarial model.
  for (uint32_t i = 0; i < model.pool_size; ++i) {
    const double u = rng->UniformDouble();
    double boundary = model.reliable_fraction;
    WorkerType type = WorkerType::kSpammer;
    if (u < boundary) {
      type = WorkerType::kReliable;
    } else if (u < (boundary += model.noisy_fraction)) {
      type = WorkerType::kNoisy;
    } else if (u < (boundary += model.colluder_fraction)) {
      type = WorkerType::kColluder;
    } else if (u < (boundary += model.sleeper_fraction)) {
      type = WorkerType::kSleeper;
    }
    uint64_t policy_seed = 0;
    if (type == WorkerType::kColluder) {
      // Ring membership round-robins on worker id; the seed is a pure
      // function of the ring id so every member shares the policy.
      const uint32_t rings = std::max<uint32_t>(1, model.colluder_rings);
      uint64_t state = 0xC011D3D51A7EB00FULL ^ (i % rings);
      policy_seed = SplitMix64(&state);
    }
    const double speed = std::exp(rng->Gaussian(0.0, model.speed_sigma));
    pool.emplace_back(i, type, speed, rng->Fork(i), policy_seed);
  }
  return pool;
}

}  // namespace crowd
}  // namespace crowder

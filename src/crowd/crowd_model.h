// All behavioural assumptions of the simulated crowd in one struct, so every
// experiment states them explicitly and ablations can sweep them.
//
// The real paper ran Amazon Mechanical Turk (§7.1): $0.02/HIT + $0.005 fee,
// three assignments per HIT by distinct workers, an optional 3-pair
// qualification test, and observed (a) spammers, (b) per-assignment times
// driven by comparison counts (Fig 13), (c) total completion driven by how
// many workers a HIT type attracts (Fig 14). The defaults below are
// calibrated so those mechanisms reproduce the paper's curve shapes; see
// EXPERIMENTS.md for paper-vs-measured numbers.
#ifndef CROWDER_CROWD_CROWD_MODEL_H_
#define CROWDER_CROWD_CROWD_MODEL_H_

#include <cstdint>

#include "common/status.h"

namespace crowder {
namespace crowd {

struct CrowdModel {
  // ---- Replication & payment (matches §7.1 exactly). ----
  uint32_t assignments_per_hit = 3;
  double payment_per_assignment = 0.02;
  double fee_per_assignment = 0.005;

  // ---- Worker pool composition. ----
  uint32_t pool_size = 150;
  double reliable_fraction = 0.66;
  double noisy_fraction = 0.26;  ///< remainder are spammers

  // ---- Honest-worker error model. ----
  /// People are good at exactly the pairs machines find ambiguous — that is
  /// the paper's premise — so human difficulty is NOT the machine
  /// likelihood. Instead each pair has an intrinsic hardness u ∈ [0,1]
  /// (deterministic per pair, shared by all workers, so genuinely confusing
  /// pairs stay confusing under replication):
  ///   P(error) = base_error + hard_pair_gain * u^hardness_exponent * trend
  /// where trend = (1 - likelihood)^2 for true matches (only matches whose
  /// records barely overlap textually are hard to spot) and likelihood^2
  /// for non-matches (only strong lookalikes are hard to reject); capped at
  /// 0.5. The squared trends keep moderately-similar pairs — the bulk of
  /// what the machine pass forwards — easy for honest workers, matching the
  /// accuracy the paper observed on AMT.
  double reliable_base_error = 0.01;
  double noisy_base_error = 0.04;
  double hard_pair_gain = 0.25;
  double hardness_exponent = 2.0;

  // ---- Spammer behaviour. ----
  /// Spammers answer yes with this probability, independent of the records.
  double spammer_yes_rate = 0.55;

  // ---- Adversarial archetypes (default off). ----
  /// Colluding spammer rings: every member of a ring casts the *same* vote
  /// on a given pair (a shared deterministic yes/no policy), so replication
  /// cannot average them out the way it averages independent spammers.
  /// Fraction 0 keeps the default pool bitwise identical to the pre-
  /// adversarial model (the bucketing thresholds collapse and no extra
  /// random draws are consumed).
  double colluder_fraction = 0.0;
  /// Number of independent rings the colluders are split across (round-robin
  /// by worker id). Each ring has its own policy seed.
  uint32_t colluder_rings = 3;
  /// Marginal yes-rate of a ring's policy across pairs.
  double colluder_yes_rate = 0.7;
  /// Sleeper workers ace the qualification test, then answer real pairs
  /// like spammers (yes with spammer_yes_rate). They model the §7.1
  /// observation that a gate only filters workers at admission time.
  double sleeper_fraction = 0.0;

  // ---- Qualification test (§7.1). ----
  bool qualification_test = false;
  /// The test has this many pairs; a worker must answer all correctly.
  uint32_t qualification_pairs = 3;
  /// Rate multiplier on worker arrivals when a test gates participation.
  /// Makespan grows ~ 1/sqrt(factor) under the arrival model, so 0.06 gives
  /// the ~4x total-latency penalty the paper observed (4.5h -> 19.9h on
  /// Product with QT enabled).
  double qualification_arrival_factor = 0.06;

  // ---- Per-assignment time model (Fig 13). ----
  /// duration = base + per-comparison seconds * comparisons * worker speed.
  double base_seconds = 15.0;
  double pair_comparison_seconds = 3.5;
  /// The cluster interface (sortable table, drag-and-drop) makes one
  /// comparison much cheaper than reading a fresh record pair.
  double cluster_comparison_seconds = 1.0;
  /// Worker speed multiplier is lognormal-ish: exp(N(0, speed_sigma)).
  double speed_sigma = 0.25;

  // ---- Worker arrival / attraction model (Fig 14). ----
  /// Worker arrivals form a Poisson process with rate
  ///   base_arrival_per_minute * familiarity * exp(-visible_items /
  ///   effort_scale)
  /// where visible_items = pairs in a pair HIT, records in a cluster HIT.
  /// The paper explains Fig 14 by pair HITs attracting more workers
  /// (familiar interface) unless the batches grow too large (P28).
  double base_arrival_per_minute = 3.0;
  double familiarity_pair = 1.0;
  double familiarity_cluster = 0.5;
  double effort_scale = 25.0;

  double CostPerAssignment() const { return payment_per_assignment + fee_per_assignment; }
};

/// \brief Checks the model's fractions and rates, naming the offending field.
/// Out-of-range fractions are not harmless: reliable_fraction +
/// noisy_fraction > 1 silently produces zero spammers, and a negative
/// fraction inverts the bucketing in MakeWorkerPool. Called at session/pool
/// construction and from workflow-config validation.
Status ValidateCrowdModel(const CrowdModel& model);

/// \brief The Poisson worker-arrival rate, per second, of a batch whose HITs
/// show `visible_items` items on average: the arrival model's rate
/// (CrowdModel, Fig 14) for the cluster or pair interface, times
/// qualification_arrival_factor when a test gates participation, floored at
/// 1e-3 per minute. The completion simulation and the async delivery
/// schedule both draw arrivals at this rate.
double ArrivalRatePerSecond(const CrowdModel& model, double visible_items,
                            bool cluster_interface);

}  // namespace crowd
}  // namespace crowder

#endif  // CROWDER_CROWD_CROWD_MODEL_H_

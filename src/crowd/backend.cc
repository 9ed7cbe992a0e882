#include "crowd/backend.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <string>
#include <utility>

#include "crowd/vote_log.h"
#include "exec/parallel.h"

namespace crowder {
namespace crowd {

double AssignmentMedianSeconds(std::vector<double> durations) {
  if (durations.empty()) return 0.0;
  std::sort(durations.begin(), durations.end());
  const size_t mid = durations.size() / 2;
  return durations.size() % 2 == 1 ? durations[mid]
                                   : 0.5 * (durations[mid - 1] + durations[mid]);
}

Status ValidateBatchShape(const HitBatch& batch) {
  if (batch.pairs == nullptr) {
    return Status::InvalidArgument("HitBatch.pairs must be set (the round's pair context)");
  }
  const bool has_pair = batch.pair_hits != nullptr && !batch.pair_hits->empty();
  const bool has_cluster = batch.cluster_hits != nullptr && !batch.cluster_hits->empty();
  if (has_pair == has_cluster) {
    return Status::InvalidArgument(
        "HitBatch must carry exactly one non-empty HIT list (pair-based or cluster-based)");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Simulation primitives
// ---------------------------------------------------------------------------

Rng DeriveRng(uint64_t seed, uint64_t salt) {
  // Two SplitMix64 rounds over a multiplicatively-salted seed: enough mixing
  // that adjacent HIT indices give unrelated xoshiro states.
  uint64_t state = seed ^ ((salt + 1) * 0x9E3779B97F4A7C15ULL);
  SplitMix64(&state);
  return Rng(SplitMix64(&state));
}

double PairHardness(uint32_t a, uint32_t b) {
  uint64_t state = PairKey(a, b) ^ 0xCB0BDE12E5550AALL;
  return static_cast<double>(SplitMix64(&state) >> 11) * 0x1.0p-53;
}

std::vector<uint32_t> PickWorkersFrom(const std::vector<uint32_t>& eligible, uint32_t count,
                                      Rng* rng) {
  std::vector<size_t> picks =
      rng->SampleWithoutReplacement(eligible.size(), std::min<size_t>(count, eligible.size()));
  std::vector<uint32_t> out;
  out.reserve(picks.size());
  for (size_t p : picks) out.push_back(eligible[p]);
  return out;
}

namespace {

// Salt for the completion simulation's stream — outside the HIT index range.
constexpr uint64_t kCompletionSalt = ~0ULL;

// Poisson-arrival dispatch of assignments; returns makespan seconds.
double SimulateCompletion(const CrowdModel& model, Rng* rng,
                          const std::vector<AssignmentRecord>& assignments,
                          double visible_items, bool cluster_interface) {
  if (assignments.empty()) return 0.0;
  const double familiarity =
      cluster_interface ? model.familiarity_cluster : model.familiarity_pair;
  double rate_per_min = model.base_arrival_per_minute * familiarity *
                        std::exp(-visible_items / model.effort_scale);
  if (model.qualification_test) rate_per_min *= model.qualification_arrival_factor;
  rate_per_min = std::max(rate_per_min, 1e-3);
  const double rate_per_sec = rate_per_min / 60.0;

  // Event simulation: workers arrive Poisson(rate); a free worker takes the
  // next assignment whose HIT they have not already done. Arrived workers
  // are reused (min-heap on free time).
  struct Sim {
    double free_at;
    uint32_t sim_id;
  };
  auto cmp = [](const Sim& a, const Sim& b) { return a.free_at > b.free_at; };
  std::priority_queue<Sim, std::vector<Sim>, decltype(cmp)> free_workers(cmp);
  std::unordered_map<uint32_t, std::vector<uint32_t>> done_hits;  // sim worker -> hits

  double next_arrival = rng->Exponential(rate_per_sec);
  uint32_t arrived = 0;
  double makespan = 0.0;

  for (const AssignmentRecord& assignment : assignments) {
    // Collect candidates until one can legally take this assignment.
    std::vector<Sim> rejected;
    bool assigned = false;
    while (!assigned) {
      Sim cand{};
      const bool heap_has = !free_workers.empty();
      if (heap_has && free_workers.top().free_at <= next_arrival) {
        cand = free_workers.top();
        free_workers.pop();
      } else {
        cand = Sim{next_arrival, arrived++};
        next_arrival += rng->Exponential(rate_per_sec);
      }
      auto& done = done_hits[cand.sim_id];
      if (std::find(done.begin(), done.end(), assignment.hit) != done.end()) {
        rejected.push_back(cand);  // AMT: distinct workers per HIT
        continue;
      }
      const double finish = cand.free_at + assignment.duration_seconds;
      makespan = std::max(makespan, finish);
      done.push_back(assignment.hit);
      free_workers.push(Sim{finish, cand.sim_id});
      assigned = true;
    }
    for (const Sim& r : rejected) free_workers.push(r);
  }
  return makespan;
}

}  // namespace

// ---------------------------------------------------------------------------
// SimulatedCrowdBackend
// ---------------------------------------------------------------------------

SimulatedCrowdBackend::SimulatedCrowdBackend(const CrowdModel& model, uint64_t seed,
                                             const std::vector<uint32_t>& entity_of,
                                             Options options)
    : platform_(model, seed), entity_of_(entity_of), tee_(options.tee) {
  const uint32_t threads = exec::ResolveNumThreads(options.num_threads);
  // The caller participates in draining chunks (exec/parallel.h), so the
  // pool supplies threads - 1 workers.
  if (threads > 1) pool_ = std::make_unique<exec::ThreadPool>(threads - 1);
}

Result<std::unique_ptr<SimulatedCrowdBackend>> SimulatedCrowdBackend::Create(
    const CrowdModel& model, uint64_t seed, const std::vector<uint32_t>& entity_of,
    Options options) {
  auto backend = std::unique_ptr<SimulatedCrowdBackend>(
      new SimulatedCrowdBackend(model, seed, entity_of, options));
  CROWDER_RETURN_NOT_OK(backend->platform_.Validate());
  return backend;
}

SimulatedCrowdBackend::HitOutcome SimulatedCrowdBackend::SimulatePairHit(const HitBatch& batch,
                                                                         size_t pos) const {
  const uint32_t hit_index = batch.first_hit + static_cast<uint32_t>(pos);
  const hitgen::PairBasedHit& hit = (*batch.pair_hits)[pos];
  const auto& pairs = *batch.pairs;
  const CrowdModel& model = platform_.model();

  HitOutcome out;
  out.visible_items = static_cast<double>(hit.pairs.size());
  Rng rng = DeriveRng(platform_.seed(), hit_index);
  const std::vector<uint32_t> assignees =
      PickWorkersFrom(platform_.eligible_workers(), model.assignments_per_hit, &rng);
  for (uint32_t wid : assignees) {
    const Worker& worker = platform_.workers()[wid];
    uint64_t comparisons = 0;
    for (const graph::Edge& e : hit.pairs) {
      const auto it = pair_index_.find(PairKey(e.a, e.b));
      if (it == pair_index_.end()) {
        out.status = Status::InvalidArgument("pair HIT contains pair (" + std::to_string(e.a) +
                                             "," + std::to_string(e.b) +
                                             ") not in the candidate set");
        return out;
      }
      const similarity::ScoredPair& pair = pairs[it->second];
      const bool truth = entity_of_[e.a] == entity_of_[e.b];
      const bool vote =
          worker.AnswerPairWith(&rng, truth, pair.score, PairHardness(e.a, e.b), model);
      out.votes.push_back({pair.a, pair.b, {wid, vote}});
      ++comparisons;
    }
    const double duration =
        model.base_seconds + model.pair_comparison_seconds *
                                 static_cast<double>(comparisons) * worker.speed_factor();
    out.assignments.push_back({hit_index, wid, duration, comparisons, worker.is_adversarial()});
  }
  return out;
}

SimulatedCrowdBackend::HitOutcome SimulatedCrowdBackend::SimulateClusterHit(
    const HitBatch& batch, size_t pos) const {
  const uint32_t hit_index = batch.first_hit + static_cast<uint32_t>(pos);
  const hitgen::ClusterBasedHit& hit = (*batch.cluster_hits)[pos];
  const auto& pairs = *batch.pairs;
  const CrowdModel& model = platform_.model();
  auto likelihood_of = [&](uint32_t a, uint32_t b) {
    const auto it = pair_index_.find(PairKey(a, b));
    // Pairs inside a HIT that are not candidates were pruned as dissimilar;
    // they are easy "no" decisions.
    return it == pair_index_.end() ? 0.0 : pairs[it->second].score;
  };

  HitOutcome out;
  out.visible_items = static_cast<double>(hit.records.size());
  Rng rng = DeriveRng(platform_.seed(), hit_index);
  const std::vector<uint32_t> assignees =
      PickWorkersFrom(platform_.eligible_workers(), model.assignments_per_hit, &rng);
  for (uint32_t wid : assignees) {
    const Worker& worker = platform_.workers()[wid];

    // The §6 labelling procedure: repeatedly seed a new entity with the
    // first unlabelled record and compare it against the remaining
    // unlabelled records; a "same" verdict absorbs the record (and it is
    // never compared again), so one early error propagates — exactly the
    // behaviour of the colour-labelling interface.
    const size_t n = hit.records.size();
    std::vector<int> label(n, -1);
    int next_label = 0;
    uint64_t comparisons = 0;
    for (size_t i = 0; i < n; ++i) {
      if (label[i] >= 0) continue;
      label[i] = next_label;
      for (size_t j = i + 1; j < n; ++j) {
        if (label[j] >= 0) continue;
        const uint32_t ra = hit.records[i];
        const uint32_t rb = hit.records[j];
        const bool truth = entity_of_[ra] == entity_of_[rb];
        const bool same = worker.AnswerPairWith(&rng, truth, likelihood_of(ra, rb),
                                                PairHardness(ra, rb), model);
        ++comparisons;
        if (same) label[j] = next_label;
      }
      ++next_label;
    }
    // Derive pairwise votes for the candidate pairs inside the HIT.
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        const auto it = pair_index_.find(PairKey(hit.records[i], hit.records[j]));
        if (it == pair_index_.end()) continue;
        const similarity::ScoredPair& pair = pairs[it->second];
        out.votes.push_back({pair.a, pair.b, {wid, label[i] == label[j]}});
      }
    }
    const double duration =
        model.base_seconds + model.cluster_comparison_seconds *
                                 static_cast<double>(comparisons) * worker.speed_factor();
    out.assignments.push_back({hit_index, wid, duration, comparisons, worker.is_adversarial()});
  }
  return out;
}

Result<Ticket> SimulatedCrowdBackend::Post(const HitBatch& batch) {
  if (finished_) return Status::InvalidArgument("Post after Finish");
  if (failed_) return Status::InvalidArgument("SimulatedCrowdBackend already failed");
  if (ticket_outstanding_) {
    return Status::InvalidArgument("Post before the previous batch was polled");
  }
  CROWDER_RETURN_NOT_OK(ValidateBatchShape(batch));
  if (batch.first_hit != next_hit_) {
    return Status::InvalidArgument("HitBatch.first_hit " + std::to_string(batch.first_hit) +
                                   " does not continue the backend's HIT sequence (next is " +
                                   std::to_string(next_hit_) + ")");
  }
  // Every pair must reference a record the ground truth knows about.
  const std::vector<similarity::ScoredPair>& pairs = *batch.pairs;
  for (const similarity::ScoredPair& p : pairs) {
    if (p.a >= entity_of_.size() || p.b >= entity_of_.size()) {
      return Status::OutOfRange("pair references record beyond entity_of");
    }
  }
  pair_index_.clear();
  pair_index_.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) pair_index_[PairKey(pairs[i].a, pairs[i].b)] = i;

  // Simulate synchronously, every HIT from its own per-(seed, HIT index)
  // stream, so neither the batching nor the thread count shows.
  const bool cluster = batch.cluster_hits != nullptr && !batch.cluster_hits->empty();
  if (next_hit_ == 0) cluster_interface_ = cluster;
  std::vector<HitOutcome> outcomes = exec::ParallelMap<HitOutcome>(
      pool_.get(), batch.num_hits(), /*chunk_size=*/1, [&](size_t i) {
        return cluster ? SimulateClusterHit(batch, i) : SimulatePairHit(batch, i);
      });

  pending_votes_ = VoteBatch{};
  pending_votes_.hit_votes.reserve(outcomes.size());
  for (HitOutcome& out : outcomes) {
    if (!out.status.ok()) {
      // Latch: a prefix of the batch is already counted, so letting the
      // caller retry or finish would double-count those HITs.
      failed_ = true;
      return out.status;
    }
    total_visible_ += out.visible_items;
    pending_votes_.hit_votes.push_back({next_hit_, std::move(out.votes)});
    for (const AssignmentRecord& rec : out.assignments) {
      stats_.Add(rec);
      pending_votes_.assignments.push_back(rec);
    }
    ++next_hit_;
  }

  pending_batch_ = &batch;
  ticket_outstanding_ = true;
  return next_ticket_;
}

Result<VoteBatch> SimulatedCrowdBackend::Poll(Ticket ticket) {
  if (finished_) return Status::InvalidArgument("Poll after Finish");
  if (!ticket_outstanding_ || ticket != next_ticket_) {
    return Status::InvalidArgument("Poll for unknown ticket " + std::to_string(ticket));
  }
  if (tee_ != nullptr) {
    CROWDER_RETURN_NOT_OK(tee_->WriteBatch(*pending_batch_, pending_votes_));
  }
  ticket_outstanding_ = false;
  pending_batch_ = nullptr;
  ++next_ticket_;
  return std::move(pending_votes_);
}

Result<CrowdRunResult> SimulatedCrowdBackend::Finish() {
  if (finished_) return Status::InvalidArgument("Finish called twice");
  if (failed_) return Status::InvalidArgument("SimulatedCrowdBackend already failed");
  if (ticket_outstanding_) {
    return Status::InvalidArgument("Finish with an unpolled HIT batch outstanding");
  }
  finished_ = true;
  const CrowdModel& model = platform_.model();
  stats_.num_hits = next_hit_;
  stats_.Seal();
  stats_.cost_dollars = stats_.num_assignments * model.CostPerAssignment();
  const double avg_visible =
      next_hit_ == 0 ? 0.0 : total_visible_ / static_cast<double>(next_hit_);
  Rng completion_rng = DeriveRng(platform_.seed(), kCompletionSalt);
  stats_.total_seconds = SimulateCompletion(model, &completion_rng, stats_.assignments,
                                            avg_visible, cluster_interface_);
  if (tee_ != nullptr) CROWDER_RETURN_NOT_OK(tee_->WriteFinish(stats_));
  return std::move(stats_);
}

// ---------------------------------------------------------------------------
// CallbackCrowdBackend
// ---------------------------------------------------------------------------

CallbackCrowdBackend::CallbackCrowdBackend(CrowdCallback callback)
    : callback_(std::move(callback)) {}

Result<Ticket> CallbackCrowdBackend::Post(const HitBatch& batch) {
  if (finished_) return Status::InvalidArgument("Post after Finish");
  if (ticket_outstanding_) {
    return Status::InvalidArgument("Post before the previous batch was polled");
  }
  CROWDER_RETURN_NOT_OK(ValidateBatchShape(batch));
  pending_batch_ = &batch;
  ticket_outstanding_ = true;
  return next_ticket_;
}

Result<VoteBatch> CallbackCrowdBackend::Poll(Ticket ticket) {
  if (finished_) return Status::InvalidArgument("Poll after Finish");
  if (!ticket_outstanding_ || ticket != next_ticket_) {
    return Status::InvalidArgument("Poll for unknown ticket " + std::to_string(ticket));
  }
  CROWDER_ASSIGN_OR_RETURN(VoteBatch votes, callback_(*pending_batch_));
  stats_.num_hits += static_cast<uint32_t>(pending_batch_->num_hits());
  for (const AssignmentRecord& rec : votes.assignments) stats_.Add(rec);
  ticket_outstanding_ = false;
  pending_batch_ = nullptr;
  ++next_ticket_;
  return votes;
}

Result<CrowdRunResult> CallbackCrowdBackend::Finish() {
  if (finished_) return Status::InvalidArgument("Finish called twice");
  if (ticket_outstanding_) {
    return Status::InvalidArgument("Finish with an unpolled HIT batch outstanding");
  }
  finished_ = true;
  stats_.Seal();
  // cost_dollars / total_seconds stay zero: platform concerns the callback
  // cannot observe (see the class comment).
  return std::move(stats_);
}

}  // namespace crowd
}  // namespace crowder

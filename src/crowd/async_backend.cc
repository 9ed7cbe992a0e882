#include "crowd/async_backend.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace crowder {
namespace crowd {

namespace {

// Salt for the per-round arrival stream — disjoint from the HIT index range
// and from the completion simulation's ~0ULL, so the adapter never rewinds
// a stream the simulator uses.
constexpr uint64_t kAsyncSalt = 0xA57AC4B0FFEEDD01ULL;

}  // namespace

AsyncCrowdBackend::AsyncCrowdBackend(CrowdBackend* inner, const CrowdModel& model,
                                     uint64_t seed, AsyncCrowdOptions options)
    : inner_(inner), model_(model), seed_(seed), options_(options) {
  if (options_.hits_per_poll == 0) options_.hits_per_poll = 1;
}

Result<Ticket> AsyncCrowdBackend::Post(const HitBatch& batch) {
  if (ticket_outstanding_) {
    return Status::InvalidArgument("Post before the previous batch was fully delivered");
  }
  CROWDER_RETURN_NOT_OK(ValidateBatchShape(batch));

  // Let the inner (synchronous) backend answer the round now; asynchrony is
  // purely a property of the delivery schedule this adapter imposes.
  CROWDER_ASSIGN_OR_RETURN(const Ticket inner_ticket, inner_->Post(batch));
  CROWDER_ASSIGN_OR_RETURN(VoteBatch all, inner_->Poll(inner_ticket));

  // Group the answer per HIT: votes and the HIT's assignment records.
  std::unordered_map<uint32_t, size_t> delivery_of_hit;
  deliveries_.clear();
  deliveries_.reserve(all.hit_votes.size());
  for (HitVotes& hv : all.hit_votes) {
    delivery_of_hit[hv.hit] = deliveries_.size();
    Delivery d;
    d.votes = std::move(hv);
    deliveries_.push_back(std::move(d));
  }
  for (AssignmentRecord& rec : all.assignments) {
    const auto it = delivery_of_hit.find(rec.hit);
    if (it == delivery_of_hit.end()) {
      // An assignment for a HIT without a vote entry (possible for custom
      // inner backends) still has to be delivered exactly once: give it a
      // delivery of its own with an empty vote list.
      Delivery d;
      d.votes.hit = rec.hit;
      delivery_of_hit[rec.hit] = deliveries_.size();
      d.assignments.push_back(rec);
      deliveries_.push_back(std::move(d));
      continue;
    }
    deliveries_[it->second].assignments.push_back(rec);
  }

  // Completion times under the arrival model (crowd_model.h): HITs are
  // picked up in publish order as workers trickle in at the model's Poisson
  // rate, and a HIT's answer lands when its slowest assignment finishes —
  // so a slow worker on an early HIT overtakes later HITs, which is exactly
  // the out-of-order shape real platforms produce.
  const bool cluster = batch.cluster_hits != nullptr && !batch.cluster_hits->empty();
  const double familiarity = cluster ? model_.familiarity_cluster : model_.familiarity_pair;
  double visible = 0.0;
  if (cluster) {
    for (const auto& hit : *batch.cluster_hits) visible += static_cast<double>(hit.records.size());
  } else if (batch.pair_hits != nullptr) {
    for (const auto& hit : *batch.pair_hits) visible += static_cast<double>(hit.pairs.size());
  }
  if (!deliveries_.empty()) visible /= static_cast<double>(deliveries_.size());
  double rate_per_min =
      model_.base_arrival_per_minute * familiarity * std::exp(-visible / model_.effort_scale);
  if (model_.qualification_test) rate_per_min *= model_.qualification_arrival_factor;
  const double rate_per_sec = std::max(rate_per_min, 1e-3) / 60.0;

  Rng rng = DeriveRng(seed_ ^ kAsyncSalt, batch.first_hit);
  double pickup = 0.0;
  for (Delivery& d : deliveries_) {
    pickup += rng.Exponential(rate_per_sec);
    double longest = 0.0;
    for (const AssignmentRecord& rec : d.assignments) {
      longest = std::max(longest, rec.duration_seconds);
    }
    d.arrival_seconds = pickup + longest;
  }
  std::stable_sort(deliveries_.begin(), deliveries_.end(),
                   [](const Delivery& a, const Delivery& b) {
                     return a.arrival_seconds < b.arrival_seconds;
                   });

  next_delivery_ = 0;
  ticket_outstanding_ = true;
  return ticket_;
}

Result<VoteBatch> AsyncCrowdBackend::Poll(Ticket ticket) {
  if (!ticket_outstanding_ || ticket != ticket_) {
    return Status::InvalidArgument("Poll for unknown ticket " + std::to_string(ticket));
  }
  VoteBatch out;
  const size_t take =
      std::min<size_t>(options_.hits_per_poll, deliveries_.size() - next_delivery_);
  out.hit_votes.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    Delivery& d = deliveries_[next_delivery_++];
    out.hit_votes.push_back(std::move(d.votes));
    for (AssignmentRecord& rec : d.assignments) out.assignments.push_back(std::move(rec));
  }
  out.complete = next_delivery_ >= deliveries_.size();
  if (out.complete) {
    ticket_outstanding_ = false;
    deliveries_.clear();
    ++ticket_;
  }
  return out;
}

Result<CrowdRunResult> AsyncCrowdBackend::Finish() {
  if (ticket_outstanding_) {
    return Status::InvalidArgument(
        "Finish with undelivered votes outstanding (poll until complete first)");
  }
  return inner_->Finish();
}

}  // namespace crowd
}  // namespace crowder

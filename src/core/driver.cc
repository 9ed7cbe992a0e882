#include "core/driver.h"

#include <algorithm>
#include <string>

#include "aggregate/agreement.h"
#include "hitgen/pair_hit_generator.h"

namespace crowder {
namespace core {

namespace {

using crowd::PairKey;  // the seam's shared pair normalization

std::string PairName(uint32_t a, uint32_t b) {
  return "(" + std::to_string(a) + "," + std::to_string(b) + ")";
}

// The only place the execution mode is read: kMaterialized is the one
// partitioned path at its unbounded setting — no budget, the join's
// default blocks, one crowd partition.
WorkflowConfig ApplyExecutionMode(WorkflowConfig config) {
  if (config.execution_mode == ExecutionMode::kMaterialized) {
    config.memory_budget_bytes = 0;
    config.stream_block_records = 0;
    config.crowd_partition_pairs = 0;
  }
  return config;
}

// Runs one machine-facing phase (core/stages.h), recording its wall time
// under `name` — the stage names PipelineStats reports.
Status RunTimed(const char* name, Status (*phase)(WorkflowState*), WorkflowState* state) {
  WallTimer timer;
  CROWDER_RETURN_NOT_OK(phase(state));
  state->result.pipeline_stats.stages.push_back({name, timer.ElapsedMillis()});
  return Status::OK();
}

}  // namespace

WorkflowDriver::WorkflowDriver(WorkflowConfig config)
    : config_(ApplyExecutionMode(std::move(config))) {}
WorkflowDriver::~WorkflowDriver() = default;

Status WorkflowDriver::Start(const data::Dataset& dataset) {
  if (phase_ != Phase::kIdle) return Status::InvalidArgument("Start called twice");
  CROWDER_RETURN_NOT_OK(ValidateWorkflowConfig(config_));
  if (config_.filter_workers && filter_ == nullptr) {
    owned_filter_ = std::make_unique<crowd::ApprovalRateWorkerFilter>();
    filter_ = owned_filter_.get();
  }
  if (adaptive()) {
    closure_ = std::make_unique<graph::AnswerClosure>(
        static_cast<uint32_t>(dataset.table.num_records()));
  }
  state_ = std::make_unique<WorkflowState>(config_, dataset);
  state_->result.total_matches = dataset.CountMatchingPairs();
  if (state_->result.total_matches == 0) {
    return Status::InvalidArgument("dataset has no matching pairs; nothing to resolve");
  }

  // The machine pass and HIT generation run eagerly (the crowd rounds and
  // aggregation continue the same PipelineStats record). HIT generation
  // lays out the contexts the rounds serve (core/stages.h).
  CROWDER_RETURN_NOT_OK(RunTimed("machine-pass", RunMachinePass, state_.get()));
  CROWDER_RETURN_NOT_OK(RunTimed("hit-gen", GenerateHits, state_.get()));
  if (config_.hit_type == HitType::kPairBased && state_->result.num_candidate_pairs > 0) {
    CROWDER_ASSIGN_OR_RETURN(auto cursor, state_->stream.OpenSortedCursor());
    cursor_.emplace(std::move(cursor));
  }
  crowd_timer_.Reset();
  return Advance();
}

// ---------------------------------------------------------------------------
// The round loop. Every context (one pair partition, or one range of cluster
// HITs) is loaded once and served as rounds until nothing in it is left to
// ask; the question policy only decides what each round takes. See the
// round paragraph of the file comment in driver.h.
// ---------------------------------------------------------------------------

uint64_t WorkflowDriver::ResolveSelectionBatch() const {
  uint64_t batch = config_.selection_batch_pairs;
  if (batch == 0) {
    // Auto: big enough to fill at least two HITs, and no finer than ~64
    // sub-rounds across the whole pair population — selection stays o(|P|)
    // rounds at any scale.
    const uint64_t total = state_->result.num_candidate_pairs;
    batch = std::max<uint64_t>(2ULL * config_.pairs_per_hit, (total + 63) / 64);
  }
  if (config_.hit_type == HitType::kPairBased) {
    const uint64_t per_hit = std::max<uint32_t>(config_.pairs_per_hit, 1);
    batch = (batch + per_hit - 1) / per_hit * per_hit;  // whole HITs
  }
  return std::max<uint64_t>(batch, 1);
}

namespace {

/// The consensus verdict over the votes surviving the ban set: nullopt
/// when no vote survives or the survivors disagree, otherwise their
/// unanimous verdict. The closure only learns *unanimous* answers: a transitive
/// inference compounds the error of every answer it rests on, so a bare
/// majority (1 noisy dissent in 3) is too weak a fact to propagate — it
/// still reaches aggregation as ordinary votes, it just cannot stand in
/// for a question the crowd was never asked.
std::optional<bool> SurvivingConsensus(const std::vector<aggregate::Vote>& votes,
                                       const std::unordered_set<uint32_t>& banned) {
  uint64_t yes = 0;
  uint64_t total = 0;
  for (const aggregate::Vote& v : votes) {
    if (banned.count(v.worker_id) != 0) continue;
    ++total;
    if (v.says_match) ++yes;
  }
  if (total == 0 || (yes != 0 && yes != total)) return std::nullopt;
  return yes == total;
}

}  // namespace

Status WorkflowDriver::LoadNextBaseContext() {
  base_unresolved_.clear();
  base_cluster_hits_.clear();
  base_hit_posted_.clear();

  if (config_.hit_type == HitType::kPairBased) {
    const uint64_t total = state_->result.num_candidate_pairs;
    if (next_pair_base_ >= total) return Status::OK();
    const uint64_t want =
        std::min<uint64_t>(state_->partition_capacity, total - next_pair_base_);
    std::vector<similarity::ScoredPair> drawn;
    drawn.reserve(static_cast<size_t>(want));
    CROWDER_ASSIGN_OR_RETURN(const size_t got, cursor_->Next(static_cast<size_t>(want), &drawn));
    if (got == 0) return Status::OK();
    base_unresolved_.reserve(drawn.size());
    for (size_t i = 0; i < drawn.size(); ++i) {
      base_unresolved_.push_back({drawn[i], next_pair_base_ + i});
    }
    next_pair_base_ += got;
    base_active_ = true;
    return Status::OK();
  }

  const ClusterBoundary& cluster = state_->cluster;
  const auto& hits = cluster.hits;
  if (next_range_begin_ >= hits.size()) return Status::OK();
  WallTimer context_timer;
  const size_t begin = next_range_begin_;
  const size_t end = std::min(hits.size(), begin + cluster.hits_per_range);
  CROWDER_RETURN_NOT_OK(cluster.range_pairs->Scan(
      begin / cluster.hits_per_range, [&](const std::vector<IndexedPair>& block) {
        for (const auto& ip : block) base_unresolved_.push_back({ip.pair, ip.index});
        return Status::OK();
      }));
  base_cluster_hits_.assign(hits.begin() + begin, hits.begin() + end);
  base_hit_posted_.assign(base_cluster_hits_.size(), false);
  next_range_begin_ = end;
  base_active_ = true;
  state_->result.pipeline_stats.cluster_context_wall_ms += context_timer.ElapsedMillis();
  return Status::OK();
}

void WorkflowDriver::SweepClosure() {
  size_t kept = 0;
  for (const PendingQuestion& q : base_unresolved_) {
    // Already resolved through another context (overlapping cluster ranges
    // share pairs) or awaiting its re-ask — either way, not this context's
    // question anymore.
    if (asked_.count(q.global_index) != 0 || inferred_.count(q.global_index) != 0 ||
        reask_pending_.count(q.global_index) != 0) {
      continue;
    }
    if (auto verdict = closure_->Infer(q.pair.a, q.pair.b)) {
      inferred_.emplace(q.global_index, InferredPair{q.pair, *verdict});
      inferred_key_[PairKey(q.pair.a, q.pair.b)] = q.global_index;
      ++inferred_new_;
      continue;
    }
    base_unresolved_[kept++] = q;
  }
  base_unresolved_.resize(kept);
}

Status WorkflowDriver::PackPairHits(const std::vector<graph::Edge>& edges) {
  CROWDER_ASSIGN_OR_RETURN(round_pair_hits_,
                           hitgen::GeneratePairHits(edges, config_.pairs_per_hit));
  pending_.first_hit = next_hit_;
  pending_.pair_hits = &round_pair_hits_;
  pending_.cluster_hits = nullptr;
  return Status::OK();
}

void WorkflowDriver::PublishContext() {
  round_pair_index_.reserve(round_pairs_.size());
  for (size_t i = 0; i < round_pairs_.size(); ++i) {
    round_pair_index_[PairKey(round_pairs_[i].a, round_pairs_[i].b)] = i;
  }
  pending_.first_hit = next_hit_;
  pending_.pairs = &round_pairs_;
}

Status WorkflowDriver::PostPairRound(std::vector<PendingQuestion>* questions, size_t take) {
  round_pairs_.reserve(take);
  round_global_index_.reserve(take);
  std::vector<graph::Edge> edges;
  edges.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    const PendingQuestion& q = (*questions)[i];
    round_pairs_.push_back(q.pair);
    round_global_index_.push_back(q.global_index);
    edges.push_back({q.pair.a, q.pair.b});
  }
  questions->erase(questions->begin(), questions->begin() + take);
  CROWDER_RETURN_NOT_OK(PackPairHits(edges));
  PublishContext();
  return Status::OK();
}

Status WorkflowDriver::PostSelectionRound() {
  if (config_.hit_type == HitType::kPairBased) {
    // Fixed order asks the whole partition, in stream order: one pack over
    // it equals one pack over all pairs, because the partition capacity is
    // a multiple of pairs_per_hit.
    size_t take = base_unresolved_.size();
    if (adaptive()) {
      RankByGain(closure_.get(), &base_unresolved_);
      take = std::min<size_t>(take, static_cast<size_t>(ResolveSelectionBatch()));
    }
    return PostPairRound(&base_unresolved_, take);
  }

  if (!adaptive()) {
    // Fixed order posts the whole range: every HIT, and the context in its
    // load order.
    round_pairs_.reserve(base_unresolved_.size());
    round_global_index_.reserve(base_unresolved_.size());
    for (const PendingQuestion& q : base_unresolved_) {
      round_pairs_.push_back(q.pair);
      round_global_index_.push_back(q.global_index);
    }
    base_unresolved_.clear();
    round_cluster_hits_ = std::move(base_cluster_hits_);
    pending_.cluster_hits = &round_cluster_hits_;
    PublishContext();
    return Status::OK();
  }

  // Cluster-based: selection is per *HIT* (a cluster HIT is the atomic unit
  // of crowd work — its pairs cannot be posted separately). Rank the
  // unposted HITs by the summed gain of their unresolved pairs, skip HITs
  // with none (the savings), and post the ranked top until the batch's
  // pair budget is covered. The sub-round's context is exactly the posted
  // HITs' unresolved pairs, so already-resolved pairs inside a posted HIT
  // receive no votes.
  const uint64_t batch = ResolveSelectionBatch();
  std::unordered_map<uint64_t, size_t> unresolved_index;
  unresolved_index.reserve(base_unresolved_.size());
  std::vector<double> gain(base_unresolved_.size(), 0.0);
  for (size_t i = 0; i < base_unresolved_.size(); ++i) {
    const PendingQuestion& q = base_unresolved_[i];
    unresolved_index[PairKey(q.pair.a, q.pair.b)] = i;
    gain[i] = SelectionGain(closure_.get(), q);
  }

  struct HitRank {
    size_t hit = 0;
    double gain = 0.0;
    std::vector<size_t> pairs;  // indices into base_unresolved_
  };
  std::vector<HitRank> ranked;
  for (size_t h = 0; h < base_cluster_hits_.size(); ++h) {
    if (base_hit_posted_[h]) continue;
    const auto& records = base_cluster_hits_[h].records;
    HitRank hr;
    hr.hit = h;
    for (size_t i = 0; i < records.size(); ++i) {
      for (size_t j = i + 1; j < records.size(); ++j) {
        const auto it = unresolved_index.find(PairKey(records[i], records[j]));
        if (it == unresolved_index.end()) continue;
        hr.gain += gain[it->second];
        hr.pairs.push_back(it->second);
      }
    }
    if (!hr.pairs.empty()) ranked.push_back(std::move(hr));
  }
  if (ranked.empty()) {
    // A context pair is one some HIT of the range asks, and posting a HIT
    // moves all of its unresolved pairs into the round, so an unresolved
    // pair always has an unposted HIT.
    const size_t end = next_range_begin_;
    return Status::Internal("cluster HIT range [" +
                            std::to_string(end - base_cluster_hits_.size()) + ", " +
                            std::to_string(end) + ") has " +
                            std::to_string(base_unresolved_.size()) +
                            " unresolved pairs that no unposted HIT of the range asks");
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const HitRank& x, const HitRank& y) { return x.gain > y.gain; });

  std::vector<bool> in_round(base_unresolved_.size(), false);
  std::vector<size_t> ordered;  // indices into base_unresolved_
  std::vector<size_t> posted;
  for (const HitRank& hr : ranked) {
    if (!posted.empty() && ordered.size() >= batch) break;
    posted.push_back(hr.hit);
    base_hit_posted_[hr.hit] = true;
    for (const size_t p : hr.pairs) {
      if (!in_round[p]) ordered.push_back(p);
      in_round[p] = true;
    }
  }

  // Deterministic context order: ascending global index (vote filing and
  // FinishRound statistics see this order).
  std::sort(ordered.begin(), ordered.end(), [&](size_t x, size_t y) {
    return base_unresolved_[x].global_index < base_unresolved_[y].global_index;
  });
  round_pairs_.reserve(ordered.size());
  round_global_index_.reserve(ordered.size());
  for (const size_t i : ordered) {
    round_pairs_.push_back(base_unresolved_[i].pair);
    round_global_index_.push_back(base_unresolved_[i].global_index);
  }
  std::sort(posted.begin(), posted.end());
  round_cluster_hits_.reserve(posted.size());
  for (const size_t h : posted) round_cluster_hits_.push_back(base_cluster_hits_[h]);

  size_t kept = 0;
  for (size_t i = 0; i < base_unresolved_.size(); ++i) {
    if (!in_round[i]) base_unresolved_[kept++] = base_unresolved_[i];
  }
  base_unresolved_.resize(kept);

  pending_.cluster_hits = &round_cluster_hits_;
  PublishContext();
  return Status::OK();
}

Status WorkflowDriver::PrepareRound() {
  for (;;) {
    // Retractions first: a re-asked pair may unlock inferences for every
    // later context. (Only a ban under adaptive selection queues any.)
    if (!reask_queue_.empty()) {
      const size_t take =
          std::min<size_t>(reask_queue_.size(), static_cast<size_t>(ResolveSelectionBatch()));
      for (size_t i = 0; i < take; ++i) reask_pending_.erase(reask_queue_[i].global_index);
      return PostPairRound(&reask_queue_, take);
    }
    if (!base_active_) {
      CROWDER_RETURN_NOT_OK(LoadNextBaseContext());
      if (!base_active_) return Status::OK();  // sources exhausted → Finalize
    }
    if (adaptive()) SweepClosure();
    if (!base_unresolved_.empty()) return PostSelectionRound();
    // Context fully asked or resolved: retire it.
    base_active_ = false;
    ++state_->result.pipeline_stats.crowd_partitions;
  }
}

void WorkflowDriver::FoldAnsweredRound() {
  if (pending_.pairs == nullptr) return;
  const auto& pairs = *pending_.pairs;
  std::vector<std::vector<aggregate::Vote>> per_pair(pairs.size());
  for (const auto& [local, vote] : round_votes_) per_pair[local].push_back(vote);
  for (size_t i = 0; i < pairs.size(); ++i) {
    const uint64_t global = round_global_index_[i];
    AskedPair& rec = asked_[global];
    rec.pair = pairs[i];
    rec.votes.insert(rec.votes.end(), per_pair[i].begin(), per_pair[i].end());
    if (auto verdict = SurvivingConsensus(rec.votes, banned_workers_)) {
      closure_->AddAnswer(rec.pair.a, rec.pair.b, *verdict);
    }
  }
}

void WorkflowDriver::MaybeRebuildClosure() {
  if (banned_workers_.size() == banned_seen_) return;
  banned_seen_ = banned_workers_.size();

  // The closure cannot un-union, so revision means replay: rebuild from the
  // asked log's surviving consensus (ascending global index — the
  // deterministic rebuild order), then re-validate every inferred verdict
  // against the rebuilt closure.
  closure_->Reset();
  for (const auto& [global, rec] : asked_) {
    if (auto verdict = SurvivingConsensus(rec.votes, banned_workers_)) {
      closure_->AddAnswer(rec.pair.a, rec.pair.b, *verdict);
    }
  }
  for (auto it = inferred_.begin(); it != inferred_.end();) {
    const auto verdict = closure_->Infer(it->second.pair.a, it->second.pair.b);
    if (verdict.has_value() && *verdict == it->second.verdict) {
      ++it;
      continue;
    }
    // Un-inferred: the evidence that implied this verdict no longer
    // survives (or now implies the opposite). Conservative re-ask.
    reask_queue_.push_back({it->second.pair, it->first});
    reask_pending_.insert(it->first);
    inferred_key_.erase(PairKey(it->second.pair.a, it->second.pair.b));
    it = inferred_.erase(it);
  }
}

Status WorkflowDriver::Advance() {
  next_hit_ += static_cast<uint32_t>(pending_.num_hits());  // retire the answered round
  pending_ = crowd::HitBatch{};
  round_pairs_.clear();
  round_pair_hits_.clear();
  round_cluster_hits_.clear();
  round_pair_index_.clear();
  round_global_index_.clear();
  round_hits_filed_.clear();
  round_votes_.clear();
  round_votes_reviewed_ = 0;
  repair_rounds_used_ = 0;
  votes_submitted_ = false;

  if (state_->result.num_candidate_pairs > 0) CROWDER_RETURN_NOT_OK(PrepareRound());
  if (!pending_.empty()) {
    phase_ = Phase::kAwaitingVotes;
    round_timer_.Reset();
    return Status::OK();
  }
  return Finalize();
}

Status WorkflowDriver::Finalize() {
  WorkflowResult& result = state_->result;
  // Hand the accumulated bans to aggregation (the revision point: every
  // decision is derived from the surviving votes only) and report them.
  if (!banned_workers_.empty()) {
    result.filtered_workers.assign(banned_workers_.begin(), banned_workers_.end());
    std::sort(result.filtered_workers.begin(), result.filtered_workers.end());
    state_->banned_workers = banned_workers_;
  }
  if (state_->votes != nullptr) {
    CROWDER_RETURN_NOT_OK(state_->votes->Finish());
    result.pipeline_stats.vote_spilled_bytes = state_->votes->spilled_bytes();
  }
  if (adaptive()) {
    for (const auto& [global, ip] : inferred_) {
      state_->inferred_verdicts.emplace(global, ip.verdict);
    }
    result.crowd_pairs_asked = asked_.size();
    result.pairs_inferred = inferred_.size();
  } else {
    // Fixed order asks everything (when there was crowd work at all).
    result.crowd_pairs_asked = next_hit_ > 0 ? result.num_candidate_pairs : 0;
  }
  // Fallback crowd statistics from what flowed through SubmitVotes; a
  // backend's Finish result (SubmitCrowdStats) replaces them with the
  // authoritative numbers.
  result.crowd_stats.num_hits = next_hit_;
  result.crowd_stats.Seal();

  result.pipeline_stats.stages.push_back({"crowd", crowd_timer_.ElapsedMillis()});
  CROWDER_RETURN_NOT_OK(RunTimed("aggregate", Aggregate, state_.get()));
  phase_ = Phase::kDone;
  return Status::OK();
}

Status WorkflowDriver::SubmitVotes(crowd::VoteBatch votes) {
  if (failed_) return Status::InvalidArgument("WorkflowDriver already failed");
  if (done()) {
    return Status::InvalidArgument("SubmitVotes after the workflow finished (done() is true)");
  }
  if (phase_ != Phase::kAwaitingVotes) {
    return Status::InvalidArgument("SubmitVotes before Start");
  }
  if (votes_submitted_) {
    return Status::InvalidArgument(
        "duplicate vote submission: the pending HIT batch was already answered");
  }

  // Validate the whole batch before filing any of it, so a rejection leaves
  // no partial state behind; the rejection still poisons the driver (the
  // failed_ latch) because a transport that produced one corrupt vote
  // cannot be trusted for the rest of the run. Each vote's context position
  // is cached here so filing needn't hash the keys a second time.
  const uint32_t first = pending_.first_hit;
  const uint32_t end_hit = first + static_cast<uint32_t>(pending_.num_hits());
  std::vector<size_t> vote_locals;
  size_t total_votes = 0;
  for (const crowd::HitVotes& hv : votes.hit_votes) total_votes += hv.votes.size();
  vote_locals.reserve(total_votes);
  std::unordered_set<uint32_t> batch_hits;
  batch_hits.reserve(votes.hit_votes.size());
  for (const crowd::HitVotes& hv : votes.hit_votes) {
    if (hv.hit < first || hv.hit >= end_hit) {
      failed_ = true;
      return Status::InvalidArgument(
          "vote batch names HIT " + std::to_string(hv.hit) + " outside the pending batch [" +
          std::to_string(first) + ", " + std::to_string(end_hit) + ")");
    }
    // A HIT's votes are atomic across an asynchronous round's deliveries
    // (crowd/backend.h): seeing the same HIT twice — in this batch or an
    // earlier partial one — means the transport re-delivered, and filing it
    // again would double-count its votes.
    if (round_hits_filed_.count(hv.hit) != 0 || !batch_hits.insert(hv.hit).second) {
      failed_ = true;
      return Status::InvalidArgument("HIT " + std::to_string(hv.hit) +
                                     " delivered twice in this round");
    }
    for (const crowd::PairVote& pv : hv.votes) {
      const auto it = round_pair_index_.find(PairKey(pv.a, pv.b));
      if (it == round_pair_index_.end()) {
        // A vote on a pair the answer closure already resolved is a clean
        // protocol error, not corrupt data: the pair was deliberately never
        // posted, so a well-meaning caller answering from its own records
        // can hit this — reject the batch (nothing was filed yet) without
        // latching, so the corrected batch can be resubmitted.
        if (inferred_key_.count(PairKey(pv.a, pv.b)) != 0) {
          return Status::InvalidArgument(
              "vote on pair " + PairName(pv.a, pv.b) +
              " already resolved by the answer closure: the pair was inferred, not posted "
              "(HIT " + std::to_string(hv.hit) + ")");
        }
        failed_ = true;
        return Status::InvalidArgument("vote on unknown pair " + PairName(pv.a, pv.b) +
                                       ": not in the pending batch's candidate context (HIT " +
                                       std::to_string(hv.hit) + ")");
      }
      vote_locals.push_back(it->second);
    }
  }
  for (const crowd::AssignmentRecord& rec : votes.assignments) {
    if (rec.hit < first || rec.hit >= end_hit) {
      failed_ = true;
      return Status::InvalidArgument(
          "assignment record names HIT " + std::to_string(rec.hit) +
          " outside the pending batch [" + std::to_string(first) + ", " +
          std::to_string(end_hit) + ")");
    }
  }

  // File the votes in the given order (per-pair cast order is what the
  // aggregators — and the byte-identity contract — observe). A filing
  // failure (e.g. vote-shard spill I/O) leaves a prefix already appended,
  // so it must latch too — a retry would double-file that prefix.
  size_t vote_cursor = 0;
  for (const crowd::HitVotes& hv : votes.hit_votes) {
    round_hits_filed_.insert(hv.hit);
    for (const crowd::PairVote& pv : hv.votes) {
      const size_t local = vote_locals[vote_cursor++];
      const Status filed = state_->votes->Append(round_global_index_[local], pv.vote);
      if (!filed.ok()) {
        failed_ = true;
        return filed;
      }
      round_votes_.emplace_back(local, pv.vote);
    }
  }
  for (const crowd::AssignmentRecord& rec : votes.assignments) {
    state_->result.crowd_stats.Add(rec);
    crowd::WorkerStats& ws = worker_stats_[rec.worker];
    ws.worker = rec.worker;
    ++ws.num_assignments;
    ws.work_seconds += rec.duration_seconds;
  }
  // A partial delivery (complete = false) leaves the round open: more
  // submissions may follow before the completing one closes it.
  votes_submitted_ = votes.complete;
  return Status::OK();
}

void WorkflowDriver::FinishRound() {
  // Only the segment this round delivered: earlier entries belong to the
  // context's previous (repaired) rounds and are already folded in.
  const size_t context = pending_.pairs != nullptr ? pending_.pairs->size() : 0;
  const size_t begin = round_votes_reviewed_;
  std::vector<uint32_t> yes(context, 0);
  std::vector<uint32_t> total(context, 0);
  for (size_t i = begin; i < round_votes_.size(); ++i) {
    const auto& [local, vote] = round_votes_[i];
    ++total[local];
    if (vote.says_match) ++yes[local];
  }

  CrowdRoundStats round;
  round.first_hit = pending_.first_hit;
  round.num_hits = static_cast<uint32_t>(pending_.num_hits());
  round.num_votes = round_votes_.size() - begin;
  round.fleiss_kappa = aggregate::FleissKappa(yes, total);
  // The selection savings banked while this round was prepared (adaptive
  // only; the counter stays 0 under kFixedOrder).
  round.pairs_inferred = inferred_new_;
  inferred_new_ = 0;

  // Fold the round into the lifetime approval statistics: a vote is
  // approved when it sides with its pair's round majority (ties approve —
  // a split pair is evidence about the pair, not the worker).
  for (size_t i = begin; i < round_votes_.size(); ++i) {
    const auto& [local, vote] = round_votes_[i];
    crowd::WorkerStats& ws = worker_stats_[vote.worker_id];
    ws.worker = vote.worker_id;
    ++ws.num_votes;
    const uint64_t twice_yes = 2ULL * yes[local];
    const bool with_majority =
        vote.says_match ? twice_yes >= total[local] : twice_yes <= total[local];
    if (with_majority) ++ws.num_agreements;
  }
  round_votes_reviewed_ = round_votes_.size();

  if (filter_ != nullptr) {
    std::vector<crowd::WorkerStats> stats;
    stats.reserve(worker_stats_.size());
    for (const auto& [id, ws] : worker_stats_) stats.push_back(ws);
    for (const uint32_t banned : filter_->Review(stats)) {
      if (banned_workers_.insert(banned).second) ++round.workers_banned;
    }
  }
  state_->result.crowd_rounds.push_back(round);
}

Result<bool> WorkflowDriver::PrepareRepairRound() {
  if (filter_ == nullptr || banned_workers_.empty()) return false;
  if (repair_rounds_used_ >= kRepairRounds) return false;
  if (pending_.pairs == nullptr) return false;

  // A pair is under-replicated when fewer than assignments_per_hit of its
  // votes survive the cumulative bans — the replication the config promised
  // it. All the context's votes count, including earlier repair rounds'.
  const uint32_t target = config_.crowd.assignments_per_hit;
  std::vector<uint32_t> surviving(pending_.pairs->size(), 0);
  for (const auto& [local, vote] : round_votes_) {
    if (banned_workers_.count(vote.worker_id) == 0) ++surviving[local];
  }
  std::vector<graph::Edge> deficient;
  for (size_t i = 0; i < surviving.size(); ++i) {
    if (surviving[i] < target) {
      deficient.push_back({(*pending_.pairs)[i].a, (*pending_.pairs)[i].b});
    }
  }
  if (deficient.empty()) return false;

  // Re-post the deficient pairs as fresh pair-based HITs over the same
  // context (legal even for a cluster round: backends dispatch on the
  // batch's shape). The HIT sequence stays continuous — retire the answered
  // round's HITs before swapping the repair HITs in.
  next_hit_ += static_cast<uint32_t>(pending_.num_hits());
  CROWDER_RETURN_NOT_OK(PackPairHits(deficient));
  round_hits_filed_.clear();
  votes_submitted_ = false;
  ++repair_rounds_used_;
  return true;
}

Status WorkflowDriver::Step() {
  if (failed_) return Status::InvalidArgument("WorkflowDriver already failed");
  if (phase_ == Phase::kIdle) return Status::InvalidArgument("Step before Start");
  if (done()) return Status::InvalidArgument("Step after the workflow finished");
  if (!votes_submitted_) {
    return Status::InvalidArgument(
        "the pending HIT batch has not been answered (SubmitVotes first)");
  }
  state_->result.pipeline_stats.round_wall_micros.Record(
      static_cast<uint64_t>(round_timer_.ElapsedSeconds() * 1e6));
  FinishRound();
  CROWDER_ASSIGN_OR_RETURN(const bool repairing, PrepareRepairRound());
  if (repairing) {
    round_timer_.Reset();
    return Status::OK();  // same context, new HITs, await votes
  }
  if (adaptive()) {
    // The sub-round (repairs included) is fully answered: teach the closure
    // its unanimous verdicts, and if this round's review grew the ban set,
    // rebuild and retract (driver.h's retraction contract).
    FoldAnsweredRound();
    MaybeRebuildClosure();
  }
  return Advance();
}

Status WorkflowDriver::SubmitCrowdStats(crowd::CrowdRunResult stats) {
  if (failed_) return Status::InvalidArgument("WorkflowDriver already failed");
  if (phase_ == Phase::kTaken) {
    return Status::InvalidArgument("SubmitCrowdStats after TakeResult");
  }
  if (phase_ != Phase::kDone) {
    return Status::InvalidArgument("SubmitCrowdStats before the workflow finished");
  }
  state_->result.crowd_stats = std::move(stats);
  return Status::OK();
}

Result<WorkflowResult> WorkflowDriver::TakeResult() {
  if (failed_) return Status::InvalidArgument("WorkflowDriver already failed");
  if (phase_ == Phase::kTaken) return Status::InvalidArgument("result already taken");
  if (phase_ != Phase::kDone) {
    return Status::InvalidArgument(
        std::string("TakeResult before the workflow finished") +
        (phase_ == Phase::kAwaitingVotes
             ? (votes_submitted_ ? " (answered round not yet stepped)"
                                 : " (pending HIT batch unanswered)")
             : ""));
  }
  phase_ = Phase::kTaken;
  return std::move(state_->result);
}

}  // namespace core
}  // namespace crowder

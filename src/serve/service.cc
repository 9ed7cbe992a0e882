#include "serve/service.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common/logging.h"
#include "core/resolution.h"
#include "core/stages.h"
#include "crowd/async_backend.h"
#include "graph/pair_graph.h"
#include "hitgen/hit.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace serve {

namespace {

// Checks the thresholds and builds the crowd platform both service paths
// judge pairs against, so a malformed model or an infeasible pool fails at
// Create, not inside a background round.
Result<crowd::CrowdPlatform> BuildCrowdPlatform(const ServiceConfig& config) {
  if (!(config.threshold > 0.0 && config.threshold <= 1.0)) {
    return Status::InvalidArgument("service threshold must be in (0,1], got " +
                                   std::to_string(config.threshold));
  }
  if (!(config.match_threshold >= 0.0 && config.match_threshold <= 1.0)) {
    return Status::InvalidArgument("match_threshold must be in [0,1], got " +
                                   std::to_string(config.match_threshold));
  }
  crowd::CrowdPlatform platform(config.model, config.seed);
  CROWDER_RETURN_NOT_OK(platform.Validate());
  return platform;
}

// The service's crowd (the body of its crowd::CrowdCallback): every pair of a
// round's HITs is judged by JudgePair, and each of its votes is one
// assignment. The round's pairs and truth copy cover every HIT it posts.
crowd::VoteBatch JudgeRound(const crowd::CrowdPlatform& platform,
                            const std::vector<uint32_t>& entity_of,
                            const crowd::HitBatch& batch) {
  std::unordered_map<uint64_t, double> score_of;
  score_of.reserve(batch.pairs->size());
  for (const similarity::ScoredPair& p : *batch.pairs) {
    score_of[crowd::PairKey(p.a, p.b)] = p.score;
  }
  crowd::VoteBatch out;
  for (size_t i = 0; i < batch.pair_hits->size(); ++i) {
    crowd::HitVotes hv;
    hv.hit = batch.first_hit + static_cast<uint32_t>(i);
    for (const graph::Edge& e : (*batch.pair_hits)[i].pairs) {
      const bool truth = entity_of[e.a] == entity_of[e.b];
      const PairJudgement judgement =
          JudgePair(platform, e.a, e.b, score_of.at(crowd::PairKey(e.a, e.b)), truth);
      for (size_t k = 0; k < judgement.votes.size(); ++k) {
        const uint32_t worker = judgement.votes[k].worker_id;
        hv.votes.push_back({std::min(e.a, e.b), std::max(e.a, e.b), judgement.votes[k]});
        out.assignments.push_back({hv.hit, worker, judgement.durations[k], /*comparisons=*/1,
                                   platform.workers()[worker].is_adversarial()});
      }
    }
    out.hit_votes.push_back(std::move(hv));
  }
  return out;
}

}  // namespace

/// One flushed crowd round. Owns everything its backend points at, so the
/// round can outlive the inserts that produced it (background execution).
struct EntityResolutionService::Round {
  std::vector<similarity::ScoredPair> pairs;
  std::vector<hitgen::PairBasedHit> hits;
  /// Ground-truth copy taken at flush time (covers every referenced record);
  /// owning a copy keeps the backend safe from the ingest thread growing the
  /// master list underneath it.
  std::vector<uint32_t> entity_of;
  uint32_t first_hit = 0;
};

EntityResolutionService::EntityResolutionService(const ServiceConfig& config,
                                                 IncrementalIndex index,
                                                 crowd::CrowdPlatform platform)
    : config_(config), platform_(std::move(platform)), index_(std::move(index)) {
  config_.pairs_per_hit = std::max<uint32_t>(1, config_.pairs_per_hit);
  config_.publish_interval = std::max<uint64_t>(1, config_.publish_interval);
  config_.crowd_flush_pairs = std::max<size_t>(1, config_.crowd_flush_pairs);
  if (config_.background) pool_ = std::make_unique<exec::ThreadPool>(1);
}

EntityResolutionService::~EntityResolutionService() {
  if (pool_ != nullptr) pool_->WaitIdle();
}

Result<std::unique_ptr<EntityResolutionService>> EntityResolutionService::Create(
    const ServiceConfig& config) {
  CROWDER_ASSIGN_OR_RETURN(crowd::CrowdPlatform platform, BuildCrowdPlatform(config));
  IncrementalIndexOptions index_options;
  index_options.measure = config.measure;
  index_options.threshold = config.threshold;
  index_options.cross_source_only = config.cross_source_only;
  index_options.rebuild_base = config.rebuild_base;
  CROWDER_ASSIGN_OR_RETURN(IncrementalIndex index, IncrementalIndex::Create(index_options));
  return std::unique_ptr<EntityResolutionService>(
      new EntityResolutionService(config, std::move(index), std::move(platform)));
}

Result<InsertOutcome> EntityResolutionService::Insert(const std::string& text, int source,
                                                      uint32_t truth_entity) {
  if (finished_) return Status::InvalidArgument("Insert after Finish");
  similarity::TokenSet set = similarity::MakeTokenSet(vocab_.InternDocument(text));
  CROWDER_ASSIGN_OR_RETURN(std::vector<similarity::ScoredPair> candidates,
                           index_.Insert(std::move(set), source));
  entity_of_.push_back(truth_entity);

  InsertOutcome outcome;
  outcome.record_id = static_cast<uint32_t>(entity_of_.size()) - 1;
  outcome.new_candidates = static_cast<uint32_t>(candidates.size());

  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint32_t id = resolver_.AddRecord();
    CROWDER_CHECK(id == outcome.record_id) << "resolver/index record ids diverged";
    ++stats_.num_records;
    stats_.candidate_pairs += candidates.size();
    stats_.index_rebuilds = index_.num_rebuilds();
    for (const similarity::ScoredPair& p : candidates) {
      if (p.score >= config_.auto_match_threshold) {
        ApplyMatchLocked(p.a, p.b);
        ++stats_.auto_matches;
        ++outcome.auto_matched;
      } else {
        pending_.emplace(crowd::PairKey(p.a, p.b), PendingPair{p.a, p.b, p.score});
        ++stats_.crowd_pairs;
        ++outcome.queued_for_crowd;
        queue_.push_back(p);
      }
    }
    if (++inserts_since_publish_ >= config_.publish_interval) {
      inserts_since_publish_ = 0;
      PublishLocked();
    }
  }
  if (queue_.size() >= config_.crowd_flush_pairs) FlushQueue();
  return outcome;
}

Result<InsertOutcome> EntityResolutionService::InsertDatasetRecord(const data::Dataset& dataset,
                                                                   uint32_t r) {
  if (r >= dataset.table.num_records()) {
    return Status::OutOfRange("record " + std::to_string(r) + " beyond dataset");
  }
  const int source = dataset.table.sources.empty() ? 0 : dataset.table.sources[r];
  return Insert(dataset.table.ConcatenatedRecord(r), source, dataset.truth.entity_of[r]);
}

Result<QueryResult> EntityResolutionService::Query(uint32_t record_id) const {
  const std::shared_ptr<const Snapshot> snapshot = store_.Get();
  if (record_id >= snapshot->num_records) {
    return Status::NotFound("record " + std::to_string(record_id) +
                            " not visible at epoch " + std::to_string(snapshot->epoch));
  }
  QueryResult out;
  out.epoch = snapshot->epoch;
  out.record_id = record_id;
  out.cluster_id = snapshot->clusters.cluster_of[record_id];
  out.members = snapshot->clusters.clusters[out.cluster_id];
  out.pending = snapshot->PendingOf(record_id);
  return out;
}

std::shared_ptr<const Snapshot> EntityResolutionService::CurrentSnapshot() const {
  return store_.Get();
}

void EntityResolutionService::ApplyMatchLocked(uint32_t a, uint32_t b) {
  const Status status = resolver_.AddMatch(a, b);
  CROWDER_CHECK(status.ok()) << "applied match rejected: " << status.ToString();
  applied_.emplace_back(a, b);
  ++stats_.applied_matches;
}

void EntityResolutionService::PublishLocked() {
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->epoch = next_epoch_++;
  snapshot->num_records = resolver_.num_records();
  snapshot->applied_matches = applied_.size();
  snapshot->candidate_pairs = stats_.candidate_pairs;
  snapshot->clusters = resolver_.CurrentClusters();
  snapshot->pending.reserve(pending_.size());
  for (const auto& [key, pair] : pending_) snapshot->pending.push_back(pair);
  std::sort(snapshot->pending.begin(), snapshot->pending.end(),
            [](const PendingPair& x, const PendingPair& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  BuildPendingAdjacency(snapshot.get());
  store_.Publish(std::move(snapshot));
  ++stats_.epochs_published;
}

void EntityResolutionService::FlushQueue() {
  if (queue_.empty()) return;
  auto round = std::make_shared<Round>();
  round->pairs = std::move(queue_);
  queue_.clear();
  for (size_t begin = 0; begin < round->pairs.size(); begin += config_.pairs_per_hit) {
    hitgen::PairBasedHit hit;
    const size_t end = std::min(round->pairs.size(), begin + config_.pairs_per_hit);
    for (size_t i = begin; i < end; ++i) {
      hit.pairs.push_back({round->pairs[i].a, round->pairs[i].b});
    }
    round->hits.push_back(std::move(hit));
  }
  round->entity_of = entity_of_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    round->first_hit = static_cast<uint32_t>(stats_.hits_posted);
    stats_.hits_posted += round->hits.size();
    ++stats_.rounds;
  }
  if (pool_ != nullptr) {
    pool_->Submit([this, round] { RunRound(round); });
  } else {
    RunRound(round);
  }
}

void EntityResolutionService::RunRound(std::shared_ptr<Round> round) {
  crowd::CallbackCrowdBackend inner([this, &round](const crowd::HitBatch& batch) {
    return JudgeRound(platform_, round->entity_of, batch);
  });
  std::unique_ptr<crowd::AsyncCrowdBackend> async;
  crowd::CrowdBackend* backend = &inner;
  if (config_.async_delivery) {
    crowd::AsyncCrowdOptions async_options;
    async_options.hits_per_poll = config_.hits_per_poll;
    async = std::make_unique<crowd::AsyncCrowdBackend>(&inner, config_.model, config_.seed,
                                                       async_options);
    backend = async.get();
  }

  crowd::HitBatch batch;
  batch.first_hit = round->first_hit;
  batch.pairs = &round->pairs;
  batch.pair_hits = &round->hits;
  Result<crowd::Ticket> ticket_or = backend->Post(batch);
  CROWDER_CHECK(ticket_or.ok()) << ticket_or.status().ToString();
  const crowd::Ticket ticket = *ticket_or;

  bool complete = false;
  while (!complete) {
    Result<crowd::VoteBatch> votes_or = backend->Poll(ticket);
    CROWDER_CHECK(votes_or.ok()) << votes_or.status().ToString();
    crowd::VoteBatch delivery = std::move(votes_or).ValueOrDie();
    complete = delivery.complete;

    std::lock_guard<std::mutex> lock(mu_);
    for (const crowd::HitVotes& hv : delivery.hit_votes) {
      // Group this HIT's votes per pair (they arrive pair-contiguous, but
      // grouping by key is robust to any producer layout).
      std::vector<uint64_t> order;
      std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>> tally;  // key -> (yes, total)
      std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>> ids;
      for (const crowd::PairVote& v : hv.votes) {
        const uint64_t key = crowd::PairKey(v.a, v.b);
        auto [it, inserted] = tally.emplace(key, std::make_pair(0u, 0u));
        if (inserted) {
          order.push_back(key);
          ids.emplace(key, std::make_pair(v.a, v.b));
        }
        it->second.first += v.vote.says_match ? 1 : 0;
        ++it->second.second;
      }
      for (uint64_t key : order) {
        const auto [yes, total] = tally[key];
        const auto [a, b] = ids[key];
        const double fraction =
            total == 0 ? 0.0 : static_cast<double>(yes) / static_cast<double>(total);
        pending_.erase(key);
        ++stats_.crowd_decided;
        if (fraction >= config_.match_threshold) {
          ++stats_.crowd_matches;
          ApplyMatchLocked(a, b);
        }
      }
    }
    for (const crowd::AssignmentRecord& rec : delivery.assignments) {
      assignment_seconds_.push_back(rec.duration_seconds);
      workers_seen_.insert(rec.worker);
      crowd_stats_.total_comparisons += rec.comparisons;
      if (rec.by_spammer) ++crowd_stats_.num_spammer_assignments;
    }
    if (!delivery.hit_votes.empty() || complete) PublishLocked();
  }
  // Protocol hygiene: every ticket polled to completion; result discarded —
  // the service accounts assignments per delivery.
  Result<crowd::CrowdRunResult> finish_or = backend->Finish();
  CROWDER_CHECK(finish_or.ok()) << finish_or.status().ToString();
}

Status EntityResolutionService::Flush() {
  if (finished_) return Status::InvalidArgument("Flush after Finish");
  FlushQueue();
  if (pool_ != nullptr) pool_->WaitIdle();
  std::lock_guard<std::mutex> lock(mu_);
  PublishLocked();
  return Status::OK();
}

Result<ServiceReport> EntityResolutionService::Finish() {
  CROWDER_RETURN_NOT_OK(Flush());
  finished_ = true;
  std::lock_guard<std::mutex> lock(mu_);
  ServiceReport report;
  report.clusters = resolver_.CurrentClusters();
  report.stats = stats_;
  report.crowd = crowd_stats_;
  report.crowd.num_assignments = static_cast<uint32_t>(assignment_seconds_.size());
  report.crowd.num_distinct_workers = static_cast<uint32_t>(workers_seen_.size());
  report.crowd.cost_dollars = report.crowd.num_assignments * config_.model.CostPerAssignment();
  report.crowd.median_assignment_seconds = crowd::AssignmentMedianSeconds(assignment_seconds_);
  return report;
}

ServiceStats EntityResolutionService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<std::pair<uint32_t, uint32_t>> EntityResolutionService::AppliedMatchPrefix(
    uint64_t count) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t n = std::min<size_t>(count, applied_.size());
  return std::vector<std::pair<uint32_t, uint32_t>>(applied_.begin(), applied_.begin() + n);
}

Result<ServiceReport> BatchResolve(const data::Dataset& dataset, const ServiceConfig& config) {
  CROWDER_ASSIGN_OR_RETURN(const crowd::CrowdPlatform platform, BuildCrowdPlatform(config));

  // The batch pipeline's tokenization, which the service's ingest path
  // matches call for call (Vocabulary::InternDocument per record): record
  // order defines token-id assignment, so both paths see bitwise-identical
  // token sets and scores.
  const similarity::JoinInput input = core::internal::BuildJoinInput(
      dataset, core::CandidateStrategy::kAllPairsJoin, nullptr);

  similarity::JoinOptions join_options;
  join_options.measure = config.measure;
  join_options.threshold = config.threshold;
  CROWDER_ASSIGN_OR_RETURN(std::vector<similarity::ScoredPair> pairs,
                           similarity::AllPairsJoin(input, join_options));

  const uint32_t n = static_cast<uint32_t>(dataset.table.num_records());
  core::StreamingResolver resolver(n);

  ServiceReport report;
  report.stats.num_records = n;
  report.stats.candidate_pairs = pairs.size();
  std::vector<double> assignment_seconds;
  std::set<uint32_t> workers_seen;
  for (const similarity::ScoredPair& p : pairs) {
    if (p.score >= config.auto_match_threshold) {
      CROWDER_RETURN_NOT_OK(resolver.AddMatch(p.a, p.b));
      ++report.stats.auto_matches;
      ++report.stats.applied_matches;
      continue;
    }
    ++report.stats.crowd_pairs;
    const bool truth = dataset.truth.IsMatch(p.a, p.b);
    const PairJudgement judgement = JudgePair(platform, p.a, p.b, p.score, truth);
    uint32_t yes = 0;
    for (size_t k = 0; k < judgement.votes.size(); ++k) {
      yes += judgement.votes[k].says_match ? 1 : 0;
      assignment_seconds.push_back(judgement.durations[k]);
      workers_seen.insert(judgement.votes[k].worker_id);
      ++report.crowd.total_comparisons;
      if (platform.workers()[judgement.votes[k].worker_id].is_adversarial()) {
        ++report.crowd.num_spammer_assignments;
      }
    }
    const double fraction = judgement.votes.empty()
                                ? 0.0
                                : static_cast<double>(yes) /
                                      static_cast<double>(judgement.votes.size());
    ++report.stats.crowd_decided;
    if (fraction >= config.match_threshold) {
      ++report.stats.crowd_matches;
      ++report.stats.applied_matches;
      CROWDER_RETURN_NOT_OK(resolver.AddMatch(p.a, p.b));
    }
  }
  CROWDER_ASSIGN_OR_RETURN(report.clusters, resolver.Finish());
  report.crowd.num_assignments = static_cast<uint32_t>(assignment_seconds.size());
  report.crowd.num_distinct_workers = static_cast<uint32_t>(workers_seen.size());
  report.crowd.cost_dollars = report.crowd.num_assignments * config.model.CostPerAssignment();
  report.crowd.median_assignment_seconds = crowd::AssignmentMedianSeconds(assignment_seconds);
  return report;
}

Status WriteClusterReport(const core::EntityClusters& clusters, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << "record,cluster\n";
  for (size_t r = 0; r < clusters.cluster_of.size(); ++r) {
    out << r << "," << clusters.cluster_of[r] << "\n";
  }
  out.flush();
  if (!out) return Status::IOError("short write to " + path);
  return Status::OK();
}

}  // namespace serve
}  // namespace crowder

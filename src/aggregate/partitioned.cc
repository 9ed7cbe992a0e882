#include "aggregate/partitioned.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.h"

namespace crowder {
namespace aggregate {

namespace {

// Fraction of yes votes among packed votes [begin, end) (non-empty): the
// arithmetic of MajorityMatchProbability.
double MajorityOf(const uint32_t* begin, const uint32_t* end) {
  size_t yes = 0;
  for (const uint32_t* v = begin; v != end; ++v) yes += *v & 1u;
  return static_cast<double>(yes) / static_cast<double>(end - begin);
}

// The E-step posterior of one pair with votes [begin, end) (non-empty).
// Adds the same doubles in the same order as summing std::log of each
// vote's confusion estimate, because `terms` holds exactly those logs.
double PosteriorOf(const uint32_t* begin, const uint32_t* end,
                   const std::vector<std::array<double, 2>>& terms,
                   const std::array<double, 2>& log_prior) {
  double log_pos = log_prior[0];
  double log_neg = log_prior[1];
  for (const uint32_t* v = begin; v != end; ++v) {
    log_pos += terms[*v][0];
    log_neg += terms[*v][1];
  }
  const double m = std::max(log_pos, log_neg);
  const double pos = std::exp(log_pos - m);
  const double neg = std::exp(log_neg - m);
  return pos / (pos + neg);
}

// One iteration's parameters over the dense worker space, with the E-step
// terms derived from them.
struct Params {
  std::vector<WorkerQuality> workers;  ///< num_votes == 0: no vote this fit
  double class_prior = 0.5;
  int iterations = 0;
  std::vector<std::array<double, 2>> vote_log_terms;
  std::array<double, 2> log_prior{};
};

// M-step sufficient statistics of one worker over one pass.
struct WorkerMass {
  double sens_sum = 0.0;
  double spec_sum = 0.0;
  double pos_mass = 0.0;
  double neg_mass = 0.0;
  uint32_t votes = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// VoteShardStore
// ---------------------------------------------------------------------------

VoteShardStore::VoteShardStore(uint64_t memory_budget_bytes,
                               std::vector<uint64_t> shard_pair_counts)
    : staged_(std::make_unique<ShardedSpillStore<StagedVote>>(memory_budget_bytes)),
      compacted_(memory_budget_bytes),
      counts_(std::move(shard_pair_counts)) {
  starts_.reserve(counts_.size());
  uint64_t start = 0;
  for (uint64_t count : counts_) {
    // Votes address pairs within a shard with 32 bits; a larger shard would
    // silently truncate (core::ResolvePartitionCapacity caps the workflow's
    // shard layouts below this).
    CROWDER_CHECK_LE(count, uint64_t{UINT32_MAX}) << "vote shard covers too many pairs";
    starts_.push_back(start);
    start += count;
  }
  staged_->AddShards(counts_.size());
  compacted_.AddShards(counts_.size());
  shard_votes_.assign(counts_.size(), 0);
}

uint64_t VoteShardStore::total_votes() const {
  uint64_t total = 0;
  for (uint32_t votes : shard_votes_) total += votes;
  return total;
}

uint64_t VoteShardStore::shard_start(size_t shard) const {
  CROWDER_CHECK_LT(shard, starts_.size());
  return starts_[shard];
}

uint64_t VoteShardStore::shard_pairs(size_t shard) const {
  CROWDER_CHECK_LT(shard, counts_.size());
  return counts_[shard];
}

uint64_t VoteShardStore::spilled_bytes() const {
  if (staged_ != nullptr) return staged_->spilled_bytes();
  return staged_spilled_bytes_ + compacted_.spilled_bytes();
}

Status VoteShardStore::Append(uint64_t global_pair_index, const Vote& vote) {
  if (staged_ == nullptr) return Status::InvalidArgument("Append on a finished vote store");
  // Locality hint first: crowd emission walks pairs roughly in index order.
  size_t shard = last_shard_;
  if (shard >= counts_.size() || global_pair_index < starts_[shard] ||
      global_pair_index >= starts_[shard] + counts_[shard]) {
    const auto it = std::upper_bound(starts_.begin(), starts_.end(), global_pair_index);
    if (it == starts_.begin()) {
      return Status::OutOfRange("vote for pair index before the first shard");
    }
    shard = static_cast<size_t>((it - starts_.begin()) - 1);
    if (global_pair_index >= starts_[shard] + counts_[shard]) {
      return Status::OutOfRange("vote for pair index beyond the sharded range");
    }
    last_shard_ = shard;
  }
  // A compacted shard's row offsets are 32-bit.
  if (shard_votes_[shard] == UINT32_MAX) {
    return Status::OutOfRange("vote shard holds too many votes");
  }
  const auto [it, inserted] =
      dense_of_.try_emplace(vote.worker_id, static_cast<uint32_t>(worker_ids_.size()));
  if (inserted) {
    if (worker_ids_.size() >= kMaxDenseWorkers) {
      dense_of_.erase(it);
      return Status::OutOfRange("more than 2^31 distinct workers");
    }
    worker_ids_.push_back(vote.worker_id);
  }
  StagedVote staged;
  staged.local_index = static_cast<uint32_t>(global_pair_index - starts_[shard]);
  staged.vote = PackVote(it->second, vote.says_match);
  CROWDER_RETURN_NOT_OK(staged_->AppendRecord(shard, staged));
  ++shard_votes_[shard];
  return Status::OK();
}

Status VoteShardStore::Finish(const std::unordered_set<uint32_t>& banned) {
  if (staged_ == nullptr) return Status::InvalidArgument("Finish on a finished vote store");
  CROWDER_RETURN_NOT_OK(staged_->Finish());
  // The ban set over the dense workers; ids that never voted have no slot.
  std::vector<bool> dropped(worker_ids_.size(), false);
  for (size_t d = 0; d < worker_ids_.size(); ++d) {
    dropped[d] = banned.count(worker_ids_[d]) != 0;
  }
  rows_.assign(counts_.size(), 0);
  std::vector<StagedVote> staged;
  std::vector<uint32_t> fill;
  for (size_t shard = 0; shard < counts_.size(); ++shard) {
    staged.clear();
    CROWDER_RETURN_NOT_OK(staged_->Scan(shard, [&](const std::vector<StagedVote>& block) {
      for (const StagedVote& v : block) {
        if (!dropped[v.vote >> 1]) staged.push_back(v);
      }
      return Status::OK();
    }));

    // Counting sort on the local pair index into one block: the row
    // offsets, then the votes. Rows run to the last surviving voted pair;
    // placing votes in staged (= append) order keeps each pair's votes in
    // cast order.
    size_t rows = 0;
    for (const StagedVote& v : staged) rows = std::max<size_t>(rows, size_t{v.local_index} + 1);
    if (rows == 0) continue;
    rows_[shard] = rows;
    std::vector<uint32_t> block(rows + 1 + staged.size(), 0);
    uint32_t* offsets = block.data();
    for (const StagedVote& v : staged) ++offsets[v.local_index + 1];
    for (size_t i = 1; i <= rows; ++i) offsets[i] += offsets[i - 1];
    fill.assign(offsets, offsets + rows);
    uint32_t* votes = offsets + rows + 1;
    for (const StagedVote& v : staged) votes[fill[v.local_index]++] = v.vote;
    CROWDER_RETURN_NOT_OK(compacted_.Append(shard, std::move(block)));
  }
  CROWDER_RETURN_NOT_OK(compacted_.Finish());
  staged_spilled_bytes_ = staged_->spilled_bytes();
  staged_.reset();  // the staged log and its spill file are no longer needed
  return Status::OK();
}

Status VoteShardStore::WithShard(size_t shard,
                                 const std::function<Status(const FlatVoteShard&)>& fn) const {
  if (staged_ != nullptr) return Status::InvalidArgument("WithShard before Finish");
  if (shard >= counts_.size()) {
    return Status::OutOfRange("shard " + std::to_string(shard) + " of " +
                              std::to_string(counts_.size()));
  }
  FlatVoteShard flat;
  flat.num_pairs = counts_[shard];
  flat.num_rows = rows_[shard];
  if (flat.num_rows == 0) return fn(flat);
  // The shard is one block; a spilled one is read back whole.
  return compacted_.Scan(shard, [&](const std::vector<uint32_t>& block) {
    flat.offsets = block.data();
    flat.votes = block.data() + flat.num_rows + 1;
    return fn(flat);
  });
}

// ---------------------------------------------------------------------------
// Posteriors
// ---------------------------------------------------------------------------

Status ShardMatchProbabilities(const VoteShardStore& votes, size_t shard,
                               const DawidSkeneModel& model, std::vector<double>* out) {
  CROWDER_CHECK(out != nullptr);
  if (!model.vote_log_terms.empty() &&
      model.vote_log_terms.size() != 2 * votes.worker_ids().size()) {
    return Status::InvalidArgument("model was fitted on a different worker set");
  }
  return votes.WithShard(shard, [&](const FlatVoteShard& flat) {
    out->assign(static_cast<size_t>(flat.num_pairs), kUnjudgedMatchProbability);
    for (size_t row = 0; row < flat.num_rows; ++row) {
      const uint32_t* begin = flat.votes + flat.offsets[row];
      const uint32_t* end = flat.votes + flat.offsets[row + 1];
      if (begin == end) continue;
      // No EM iteration ran: the posterior is the initialization, i.e. the
      // majority fraction.
      (*out)[row] = model.vote_log_terms.empty()
                        ? MajorityOf(begin, end)
                        : PosteriorOf(begin, end, model.vote_log_terms, model.log_prior);
    }
    return Status::OK();
  });
}

// ---------------------------------------------------------------------------
// EM
// ---------------------------------------------------------------------------

Result<DawidSkeneModel> FitDawidSkeneSharded(const VoteShardStore& votes) {
  constexpr double s = kDawidSkeneSmoothing;
  constexpr double good = kDawidSkenePriorCorrect;
  constexpr double bad = kDawidSkenePriorIncorrect;
  const std::vector<uint32_t>& worker_ids = votes.worker_ids();
  const size_t num_workers = worker_ids.size();

  // The EM loop, restructured around one shard pass per iteration. The
  // posterior of a pair is a pure function of (its votes, the model of the
  // previous iteration), so pass t recomputes every posterior from `prev`
  // (= params_{t-1}; the majority initialization when t == 0) while
  // accumulating the M-step statistics that finalize params_t. Convergence
  // is the materialized loop's criterion, recovered one model late: the
  // E-step delta of iteration t-1 is max |E(params_{t-1}) - E(params_{t-2})|,
  // both recomputable during pass t from `prev` and `older`.
  Params prev;   // params_{t-1}; meaningful from t >= 1
  Params older;  // params_{t-2}; meaningful from t >= 2
  std::vector<WorkerMass> mass;

  const auto to_model = [&](Params* params, bool converged) {
    DawidSkeneModel model;
    model.class_prior = params->class_prior;
    model.iterations = params->iterations;
    model.converged = converged;
    for (size_t d = 0; d < num_workers; ++d) {
      if (params->workers[d].num_votes > 0) {
        model.workers.emplace(worker_ids[d], params->workers[d]);
      }
    }
    model.vote_log_terms = std::move(params->vote_log_terms);
    model.log_prior = params->log_prior;
    return model;
  };

  for (int t = 0;; ++t) {
    mass.assign(num_workers, WorkerMass{});
    double prior_num = 0.0;
    size_t judged = 0;
    double max_delta = 0.0;

    for (size_t shard = 0; shard < votes.num_shards(); ++shard) {
      CROWDER_RETURN_NOT_OK(votes.WithShard(shard, [&](const FlatVoteShard& flat) {
        for (size_t row = 0; row < flat.num_rows; ++row) {
          const uint32_t* begin = flat.votes + flat.offsets[row];
          const uint32_t* end = flat.votes + flat.offsets[row + 1];
          if (begin == end) continue;
          const double p = t == 0 ? MajorityOf(begin, end)
                                  : PosteriorOf(begin, end, prev.vote_log_terms, prev.log_prior);
          if (t >= 1) {
            const double p_old =
                t == 1 ? MajorityOf(begin, end)
                       : PosteriorOf(begin, end, older.vote_log_terms, older.log_prior);
            max_delta = std::max(max_delta, std::fabs(p - p_old));
          }
          ++judged;
          prior_num += p;
          for (const uint32_t* v = begin; v != end; ++v) {
            WorkerMass& w = mass[*v >> 1];
            ++w.votes;
            w.pos_mass += p;
            w.neg_mass += 1.0 - p;
            if (*v & 1u) {
              w.sens_sum += p;
            } else {
              w.spec_sum += 1.0 - p;
            }
          }
        }
        return Status::OK();
      }));
    }

    if (judged == 0) {
      // No votes anywhere: EM has nothing to fit (only reachable at t == 0).
      DawidSkeneModel model;
      model.converged = true;
      return model;
    }
    if (t >= 1 && max_delta < kDawidSkeneTolerance) {
      return to_model(&prev, /*converged=*/true);  // prev.iterations == t already
    }
    if (t == kDawidSkeneMaxIterations) {
      // params_{max-1}, iterations == max, converged == false
      return to_model(&prev, /*converged=*/false);
    }

    // Finalize params_t (the materialized loop's M-step normalization) into
    // the storage params_{t-2} no longer needs, then take its logs once.
    std::swap(older, prev);
    prev.class_prior =
        std::clamp((prior_num + s) / (static_cast<double>(judged) + 2.0 * s), 0.01, 0.99);
    prev.iterations = t + 1;
    prev.log_prior = {std::log(prev.class_prior), std::log(1.0 - prev.class_prior)};
    prev.workers.resize(num_workers);
    prev.vote_log_terms.resize(2 * num_workers);
    for (size_t d = 0; d < num_workers; ++d) {
      const WorkerMass& m = mass[d];
      WorkerQuality& w = prev.workers[d];
      w.num_votes = m.votes;
      w.sensitivity = (m.sens_sum + good) / (m.pos_mass + good + bad);
      w.specificity = (m.spec_sum + good) / (m.neg_mass + good + bad);
      w.sensitivity = std::clamp(w.sensitivity, 1e-4, 1.0 - 1e-4);
      w.specificity = std::clamp(w.specificity, 1e-4, 1.0 - 1e-4);
      prev.vote_log_terms[PackVote(static_cast<uint32_t>(d), true)] = {
          std::log(w.sensitivity), std::log(1.0 - w.specificity)};
      prev.vote_log_terms[PackVote(static_cast<uint32_t>(d), false)] = {
          std::log(1.0 - w.sensitivity), std::log(w.specificity)};
    }
  }
}

}  // namespace aggregate
}  // namespace crowder

#include "aggregate/partitioned.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/logging.h"

namespace crowder {
namespace aggregate {

namespace {

Status ShardOutOfRange(size_t shard, size_t num_shards) {
  return Status::OutOfRange("shard " + std::to_string(shard) + " of " +
                            std::to_string(num_shards));
}

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

// Every comparison is written so that NaN fails it, and the upper bound
// rejects infinity (an infinite pseudo-count turns every estimate into NaN).
Status ValidateOptions(const DawidSkeneOptions& options) {
  constexpr double kMax = std::numeric_limits<double>::max();
  if (options.max_iterations <= 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  if (!(options.tolerance >= 0.0 && options.tolerance <= kMax)) {
    return Status::InvalidArgument("tolerance must be finite and non-negative");
  }
  if (!(options.smoothing >= 0.0 && options.smoothing <= kMax)) {
    return Status::InvalidArgument("smoothing must be finite and non-negative");
  }
  if (!(options.prior_correct > 0.0 && options.prior_correct <= kMax)) {
    return Status::InvalidArgument("prior_correct must be finite and positive");
  }
  if (!(options.prior_incorrect > 0.0 && options.prior_incorrect <= kMax)) {
    return Status::InvalidArgument("prior_incorrect must be finite and positive");
  }
  return Status::OK();
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
// Sources
// ---------------------------------------------------------------------------

Result<uint32_t> DenseWorkerIndex::Intern(uint32_t worker_id) {
  const auto [it, inserted] =
      dense_of_.try_emplace(worker_id, static_cast<uint32_t>(worker_ids_.size()));
  if (inserted) {
    if (worker_ids_.size() >= kMaxDenseWorkers) {
      dense_of_.erase(it);
      return Status::OutOfRange("more than 2^31 distinct workers");
    }
    worker_ids_.push_back(worker_id);
  }
  return it->second;
}

InMemoryVoteShards::InMemoryVoteShards(const VoteTable& table,
                                       const std::vector<size_t>& shard_sizes) {
  shards_.resize(shard_sizes.size());
  size_t start = 0;
  for (size_t s = 0; s < shard_sizes.size(); ++s) {
    CROWDER_CHECK_LE(start + shard_sizes[s], table.size())
        << "shard sizes must sum to the table size";
    FlatVoteShard& flat = shards_[s];
    flat.num_pairs = shard_sizes[s];
    size_t rows = shard_sizes[s];
    while (rows > 0 && table[start + rows - 1].empty()) --rows;
    if (rows > 0) {
      flat.offsets.reserve(rows + 1);
      flat.offsets.push_back(0);
      for (size_t i = 0; i < rows; ++i) {
        for (const Vote& v : table[start + i]) {
          flat.votes.push_back(PackVote(workers_.Intern(v.worker_id).ValueOrDie(), v.says_match));
        }
        CROWDER_CHECK_LE(flat.votes.size(), size_t{UINT32_MAX}) << "shard holds too many votes";
        flat.offsets.push_back(static_cast<uint32_t>(flat.votes.size()));
      }
    }
    start += shard_sizes[s];
  }
  CROWDER_CHECK(start == table.size()) << "shard sizes must sum to the table size";
}

Status InMemoryVoteShards::WithShard(size_t shard,
                                     const std::function<Status(const FlatVoteShard&)>& fn) {
  if (shard >= shards_.size()) return ShardOutOfRange(shard, shards_.size());
  return fn(shards_[shard]);
}

FilteredVoteShardSource::FilteredVoteShardSource(VoteShardSource* inner,
                                                 const std::unordered_set<uint32_t>& banned)
    : inner_(inner) {
  CROWDER_CHECK(inner_ != nullptr);
  if (banned.empty()) return;
  const std::vector<uint32_t>& ids = inner_->worker_ids();
  std::vector<bool> bitmap(ids.size(), false);
  bool any = false;
  for (size_t d = 0; d < ids.size(); ++d) {
    if (banned.count(ids[d]) != 0) {
      bitmap[d] = true;
      any = true;
    }
  }
  if (any) banned_ = std::move(bitmap);
}

Status FilteredVoteShardSource::WithShard(
    size_t shard, const std::function<Status(const FlatVoteShard&)>& fn) {
  if (banned_.empty()) return inner_->WithShard(shard, fn);  // lend through
  return inner_->WithShard(shard, [&](const FlatVoteShard& in) {
    filtered_.num_pairs = in.num_pairs;
    filtered_.offsets.resize(in.offsets.size());
    filtered_.votes.clear();
    for (size_t row = 0; row < in.num_rows(); ++row) {
      filtered_.offsets[row] = static_cast<uint32_t>(filtered_.votes.size());
      for (uint32_t i = in.offsets[row]; i < in.offsets[row + 1]; ++i) {
        const uint32_t v = in.votes[i];
        if (!banned_[v >> 1]) filtered_.votes.push_back(v);
      }
    }
    if (!filtered_.offsets.empty()) {
      filtered_.offsets.back() = static_cast<uint32_t>(filtered_.votes.size());
    }
    return fn(filtered_);
  });
}

// ---------------------------------------------------------------------------
// Posteriors
// ---------------------------------------------------------------------------

Status ShardMatchProbabilities(VoteShardSource* shards, size_t shard,
                               const DawidSkeneModel& model, std::vector<double>* out) {
  CROWDER_CHECK(shards != nullptr && out != nullptr);
  if (shard >= shards->num_shards()) return ShardOutOfRange(shard, shards->num_shards());
  if (!model.vote_log_terms.empty() &&
      model.vote_log_terms.size() != 2 * shards->worker_ids().size()) {
    return Status::InvalidArgument("model was fitted on a different worker set");
  }
  return shards->WithShard(shard, [&](const FlatVoteShard& flat) {
    out->assign(static_cast<size_t>(flat.num_pairs), kUnjudgedMatchProbability);
    for (size_t row = 0; row < flat.num_rows(); ++row) {
      const uint32_t* begin = flat.votes.data() + flat.offsets[row];
      const uint32_t* end = flat.votes.data() + flat.offsets[row + 1];
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

Result<DawidSkeneModel> FitDawidSkeneSharded(VoteShardSource* shards,
                                             const DawidSkeneOptions& options) {
  CROWDER_CHECK(shards != nullptr);
  CROWDER_RETURN_NOT_OK(ValidateOptions(options));

  const double s = options.smoothing;
  const double good = options.prior_correct;
  const double bad = options.prior_incorrect;
  const std::vector<uint32_t>& worker_ids = shards->worker_ids();
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

    for (size_t shard = 0; shard < shards->num_shards(); ++shard) {
      CROWDER_RETURN_NOT_OK(shards->WithShard(shard, [&](const FlatVoteShard& flat) {
        for (size_t row = 0; row < flat.num_rows(); ++row) {
          const uint32_t* begin = flat.votes.data() + flat.offsets[row];
          const uint32_t* end = flat.votes.data() + flat.offsets[row + 1];
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
    if (t >= 1 && max_delta < options.tolerance) {
      return to_model(&prev, /*converged=*/true);  // prev.iterations == t already
    }
    if (t == options.max_iterations) {
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

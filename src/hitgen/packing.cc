#include "hitgen/packing.h"

#include <algorithm>
#include <deque>

namespace crowder {
namespace hitgen {

namespace {

Status ValidateSccs(const std::vector<std::vector<uint32_t>>& sccs, uint32_t k) {
  for (size_t i = 0; i < sccs.size(); ++i) {
    if (sccs[i].empty()) {
      return Status::InvalidArgument("SCC " + std::to_string(i) + " is empty");
    }
    if (sccs[i].size() > k) {
      return Status::InvalidArgument("SCC " + std::to_string(i) + " has " +
                                     std::to_string(sccs[i].size()) +
                                     " records, exceeding k=" + std::to_string(k));
    }
  }
  return Status::OK();
}

ClusterBasedHit MergeSccs(const std::vector<std::vector<uint32_t>>& sccs,
                          const std::vector<uint32_t>& members) {
  ClusterBasedHit hit;
  for (uint32_t idx : members) {
    hit.records.insert(hit.records.end(), sccs[idx].begin(), sccs[idx].end());
  }
  std::sort(hit.records.begin(), hit.records.end());
  hit.records.erase(std::unique(hit.records.begin(), hit.records.end()), hit.records.end());
  return hit;
}

Result<std::vector<ClusterBasedHit>> PackIlp(const std::vector<std::vector<uint32_t>>& sccs,
                                             uint32_t k, const PackingOptions& options) {
  // Demands per size (the paper's c_j): c_j = #SCCs with j vertices.
  std::vector<uint32_t> demands(k, 0);
  for (const auto& scc : sccs) ++demands[scc.size() - 1];

  CROWDER_ASSIGN_OR_RETURN(lp::CuttingStockResult packed,
                           lp::SolveCuttingStock(k, demands, options.ilp));

  // Materialize: queues of SCC indices per size, drained pattern by pattern.
  std::vector<std::deque<uint32_t>> queues(k);
  for (uint32_t i = 0; i < sccs.size(); ++i) {
    queues[sccs[i].size() - 1].push_back(i);
  }

  std::vector<ClusterBasedHit> hits;
  for (size_t p = 0; p < packed.patterns.size(); ++p) {
    for (uint32_t rep = 0; rep < packed.counts[p]; ++rep) {
      std::vector<uint32_t> members;
      for (size_t j = 0; j < packed.patterns[p].size() && j < queues.size(); ++j) {
        for (uint32_t slot = 0; slot < packed.patterns[p][j]; ++slot) {
          // Covering (>=) solutions may provide more slots than demand;
          // surplus slots simply go unused.
          if (queues[j].empty()) break;
          members.push_back(queues[j].front());
          queues[j].pop_front();
        }
      }
      if (!members.empty()) hits.push_back(MergeSccs(sccs, members));
    }
  }
  for (const auto& q : queues) {
    if (!q.empty()) {
      return Status::Internal("ILP packing left SCCs unassigned; covering constraint violated");
    }
  }
  return hits;
}

Result<std::vector<ClusterBasedHit>> PackFfd(const std::vector<std::vector<uint32_t>>& sccs,
                                             uint32_t k) {
  std::vector<uint32_t> sizes;
  sizes.reserve(sccs.size());
  for (const auto& scc : sccs) sizes.push_back(static_cast<uint32_t>(scc.size()));
  CROWDER_ASSIGN_OR_RETURN(auto bins, lp::FirstFitDecreasing(k, sizes));

  std::vector<ClusterBasedHit> hits;
  hits.reserve(bins.size());
  for (const auto& bin : bins) hits.push_back(MergeSccs(sccs, bin));
  return hits;
}

}  // namespace

Result<std::vector<ClusterBasedHit>> PackSccs(const std::vector<std::vector<uint32_t>>& sccs,
                                              uint32_t k, const PackingOptions& options) {
  if (k == 0) return Status::InvalidArgument("k must be positive");
  CROWDER_RETURN_NOT_OK(ValidateSccs(sccs, k));
  if (sccs.empty()) return std::vector<ClusterBasedHit>{};

  switch (options.strategy) {
    case PackingStrategy::kIlp:
      return PackIlp(sccs, k, options);
    case PackingStrategy::kFfd:
      return PackFfd(sccs, k);
    case PackingStrategy::kNone: {
      std::vector<ClusterBasedHit> hits;
      hits.reserve(sccs.size());
      for (uint32_t i = 0; i < sccs.size(); ++i) hits.push_back(MergeSccs(sccs, {i}));
      return hits;
    }
  }
  return Status::InvalidArgument("unknown packing strategy");
}

}  // namespace hitgen
}  // namespace crowder

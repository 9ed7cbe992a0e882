#include "core/resolution.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"
#include "graph/union_find.h"

namespace crowder {
namespace core {

namespace {

// The fraction of |A|·|B| cross links a merge of two non-singleton clusters
// needs (ResolutionOptions::transitive_closure).
constexpr double kMinCrossSupport = 0.34;

}  // namespace

size_t EntityClusters::num_duplicate_groups() const {
  size_t count = 0;
  for (const auto& cluster : clusters) count += cluster.size() > 1;
  return count;
}

Result<EntityClusters> ResolveEntities(uint32_t num_records,
                                       const std::vector<eval::RankedPair>& pairs,
                                       const ResolutionOptions& options) {
  if (!(options.match_threshold >= 0.0 && options.match_threshold <= 1.0)) {
    return Status::InvalidArgument("match_threshold must be in [0,1]");
  }
  for (const auto& p : pairs) {
    if (p.a >= num_records || p.b >= num_records) {
      return Status::OutOfRange("pair references record beyond num_records");
    }
    if (p.a == p.b) return Status::InvalidArgument("self-pair in input");
  }

  // Confirmed pairs, best first.
  std::vector<eval::RankedPair> confirmed;
  for (const auto& p : pairs) {
    if (p.score >= options.match_threshold) confirmed.push_back(p);
  }
  eval::SortByScoreDesc(&confirmed);

  // Cross-cluster support lookup: how many confirmed pairs connect records
  // u and v directly.
  std::unordered_set<uint64_t> confirmed_set;
  confirmed_set.reserve(confirmed.size() * 2);
  for (const auto& p : confirmed) {
    confirmed_set.insert((static_cast<uint64_t>(std::min(p.a, p.b)) << 32) |
                         std::max(p.a, p.b));
  }

  // Each cluster is also a ring (`next`, see RingMembers), so a merge
  // check walks the two clusters' members without materializing them.
  graph::UnionFind uf(num_records);
  std::vector<uint32_t> next(num_records);
  std::iota(next.begin(), next.end(), 0);
  for (const auto& p : confirmed) {
    if (uf.Connected(p.a, p.b)) continue;
    const uint32_t size_a = uf.SetSize(p.a);
    const uint32_t size_b = uf.SetSize(p.b);
    if (!options.transitive_closure && size_a > 1 && size_b > 1) {
      // Count direct confirmed links across the two clusters.
      uint64_t links = 0;
      uint32_t u = p.a;
      do {
        uint32_t v = p.b;
        do {
          const uint64_t key =
              (static_cast<uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
          links += confirmed_set.count(key);
          v = next[v];
        } while (v != p.b);
        u = next[u];
      } while (u != p.a);
      const double support =
          static_cast<double>(links) / (static_cast<double>(size_a) * size_b);
      if (support < kMinCrossSupport) continue;
    }
    uf.Union(p.a, p.b);
    std::swap(next[p.a], next[p.b]);
  }
  return ClustersFromRings(next);
}

std::vector<uint32_t> RingMembers(const std::vector<uint32_t>& next, uint32_t record) {
  // Sized before it is filled: vectors grown one push at a time fragment the
  // heap of a caller that keeps every cluster (peak RSS rose 3% in the
  // benchmark's hybrid_cluster workload).
  size_t size = 1;
  for (uint32_t r = next[record]; r != record; r = next[r]) ++size;
  std::vector<uint32_t> members(size);
  uint32_t r = record;
  for (uint32_t& member : members) {
    member = r;
    r = next[r];
  }
  std::sort(members.begin(), members.end());
  return members;
}

EntityClusters ClustersFromRings(const std::vector<uint32_t>& next) {
  constexpr uint32_t kUnassigned = UINT32_MAX;
  EntityClusters out;
  out.cluster_of.assign(next.size(), kUnassigned);
  // Ascending record order reaches each ring at its smallest member first,
  // so rings get dense ids in exactly ResolveEntities' smallest-member order.
  for (uint32_t r = 0; r < next.size(); ++r) {
    if (out.cluster_of[r] != kUnassigned) continue;
    const auto id = static_cast<uint32_t>(out.clusters.size());
    out.clusters.push_back(RingMembers(next, r));
    for (uint32_t member : out.clusters.back()) out.cluster_of[member] = id;
  }
  return out;
}

StreamingResolver::StreamingResolver(uint32_t num_records)
    : uf_(num_records), next_(num_records) {
  std::iota(next_.begin(), next_.end(), 0);
}

uint32_t StreamingResolver::num_records() const { return uf_.num_elements(); }

uint32_t StreamingResolver::AddRecord() {
  CROWDER_CHECK(!finished_) << "AddRecord after Finish";
  next_.push_back(uf_.Add());
  return next_.back();
}

Status StreamingResolver::AddMatch(uint32_t a, uint32_t b) {
  CROWDER_CHECK(!finished_) << "AddMatch after Finish";
  if (a >= uf_.num_elements() || b >= uf_.num_elements()) {
    return Status::OutOfRange("pair references record beyond num_records");
  }
  if (a == b) return Status::InvalidArgument("self-pair in input");
  // Swapping the successors of one record on each of two rings splices them.
  if (uf_.Union(a, b)) std::swap(next_[a], next_[b]);
  return Status::OK();
}

EntityClusters StreamingResolver::CurrentClusters() const { return ClustersFromRings(next_); }

Result<EntityClusters> StreamingResolver::Finish() {
  CROWDER_CHECK(!finished_) << "Finish called twice";
  finished_ = true;
  return CurrentClusters();
}

ClusteringQuality EvaluateClusters(const EntityClusters& clusters,
                                   const data::Dataset& dataset) {
  ClusteringQuality q;
  uint64_t tp = 0;
  for (const auto& cluster : clusters.clusters) {
    for (size_t i = 0; i < cluster.size(); ++i) {
      for (size_t j = i + 1; j < cluster.size(); ++j) {
        if (!dataset.Admissible(cluster[i], cluster[j])) continue;
        ++q.predicted_pairs;
        tp += dataset.truth.IsMatch(cluster[i], cluster[j]);
      }
    }
  }
  q.true_pairs = dataset.CountMatchingPairs();
  q.precision = q.predicted_pairs == 0
                    ? 0.0
                    : static_cast<double>(tp) / static_cast<double>(q.predicted_pairs);
  q.recall =
      q.true_pairs == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(q.true_pairs);
  q.f1 = (q.precision + q.recall) == 0.0
             ? 0.0
             : 2.0 * q.precision * q.recall / (q.precision + q.recall);
  return q;
}

data::Table MergeClusters(const data::Table& table, const EntityClusters& clusters) {
  data::Table merged;
  merged.attribute_names = table.attribute_names;
  for (const auto& cluster : clusters.clusters) {
    // Canonical record: the member with the longest concatenated text (keeps
    // the most information; a simple, deterministic merge rule).
    uint32_t best = cluster.front();
    size_t best_len = 0;
    for (uint32_t r : cluster) {
      size_t len = 0;
      for (const auto& value : table.records[r]) len += value.size();
      if (len > best_len || (len == best_len && r < best)) {
        best_len = len;
        best = r;
      }
    }
    merged.records.push_back(table.records[best]);
    if (!table.sources.empty()) merged.sources.push_back(table.sources[best]);
  }
  return merged;
}

}  // namespace core
}  // namespace crowder

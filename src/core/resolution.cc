#include "core/resolution.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "graph/union_find.h"

namespace crowder {
namespace core {

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

  graph::UnionFind uf(num_records);
  std::unordered_map<uint32_t, std::vector<uint32_t>> members;  // root -> records

  auto members_of = [&](uint32_t root) -> std::vector<uint32_t>& {
    auto it = members.find(root);
    if (it == members.end()) {
      it = members.emplace(root, std::vector<uint32_t>{root}).first;
    }
    return it->second;
  };

  for (const auto& p : confirmed) {
    const uint32_t ra = uf.Find(p.a);
    const uint32_t rb = uf.Find(p.b);
    if (ra == rb) continue;
    auto& ma = members_of(ra);
    auto& mb = members_of(rb);

    bool accept = true;
    if (!options.transitive_closure && ma.size() > 1 && mb.size() > 1) {
      // Count direct confirmed links across the two clusters.
      uint64_t links = 0;
      for (uint32_t u : ma) {
        for (uint32_t v : mb) {
          const uint64_t key =
              (static_cast<uint64_t>(std::min(u, v)) << 32) | std::max(u, v);
          links += confirmed_set.count(key);
        }
      }
      const double support =
          static_cast<double>(links) / (static_cast<double>(ma.size()) * mb.size());
      accept = support >= options.min_cross_support;
    }
    if (!accept) continue;

    uf.Union(p.a, p.b);
    const uint32_t root = uf.Find(p.a);
    std::vector<uint32_t> merged;
    merged.reserve(ma.size() + mb.size());
    merged.insert(merged.end(), ma.begin(), ma.end());
    merged.insert(merged.end(), mb.begin(), mb.end());
    members.erase(ra);
    members.erase(rb);
    members[root] = std::move(merged);
  }

  // Dense cluster ids ordered by smallest member.
  EntityClusters out;
  out.cluster_of.assign(num_records, 0);
  std::map<uint32_t, std::vector<uint32_t>> by_min;
  std::vector<char> in_group(num_records, 0);
  for (auto& [root, recs] : members) {
    std::sort(recs.begin(), recs.end());
    for (uint32_t r : recs) in_group[r] = 1;
    by_min[recs.front()] = recs;
  }
  for (uint32_t r = 0; r < num_records; ++r) {
    if (!in_group[r]) by_min[r] = {r};
  }
  for (auto& [min_rec, recs] : by_min) {
    const uint32_t id = static_cast<uint32_t>(out.clusters.size());
    for (uint32_t r : recs) out.cluster_of[r] = id;
    out.clusters.push_back(std::move(recs));
  }
  return out;
}

StreamingResolver::StreamingResolver(uint32_t num_records) : uf_(num_records) {}

uint32_t StreamingResolver::num_records() const { return uf_.num_elements(); }

uint32_t StreamingResolver::AddRecord() {
  CROWDER_CHECK(!finished_) << "AddRecord after Finish";
  return uf_.Add();
}

Status StreamingResolver::AddMatch(uint32_t a, uint32_t b) {
  CROWDER_CHECK(!finished_) << "AddMatch after Finish";
  if (a >= uf_.num_elements() || b >= uf_.num_elements()) {
    return Status::OutOfRange("pair references record beyond num_records");
  }
  if (a == b) return Status::InvalidArgument("self-pair in input");
  uf_.Union(a, b);
  return Status::OK();
}

EntityClusters StreamingResolver::CurrentClusters() {
  const uint32_t n = uf_.num_elements();
  EntityClusters out;
  out.cluster_of.assign(n, 0);
  // Ascending record order visits each set's smallest member first, so
  // first-seen roots assign dense cluster ids in exactly the
  // smallest-member order ResolveEntities canonicalizes to.
  std::unordered_map<uint32_t, uint32_t> cluster_of_root;
  cluster_of_root.reserve(n);
  for (uint32_t r = 0; r < n; ++r) {
    const uint32_t root = uf_.Find(r);
    auto [it, inserted] =
        cluster_of_root.emplace(root, static_cast<uint32_t>(out.clusters.size()));
    if (inserted) out.clusters.emplace_back();
    out.cluster_of[r] = it->second;
    out.clusters[it->second].push_back(r);  // ascending by construction
  }
  return out;
}

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

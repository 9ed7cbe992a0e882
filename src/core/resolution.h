// Entity clustering: the last mile of an ER system. The workflow produces
// per-pair match scores; downstream consumers need *entities* — a partition
// of the records. Naive transitive closure over confirmed pairs is fragile
// (one false positive glues two big entities together), so the resolver
// processes pairs best-first and verifies each merge against the evidence,
// rejecting merges whose cross-cluster support is too thin (a lightweight
// correlation-clustering heuristic). Where the confirmed edges cannot be
// held — a bounded run, or the resident service (serve/service.h), whose
// records and verdicts arrive one at a time — StreamingResolver computes
// the transitive closure instead.
#ifndef CROWDER_CORE_RESOLUTION_H_
#define CROWDER_CORE_RESOLUTION_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "graph/union_find.h"

namespace crowder {
namespace core {

struct ResolutionOptions {
  /// Pairs with score >= this are treated as crowd-confirmed matches.
  double match_threshold = 0.5;
  /// Accept every merge regardless of support (pure transitive closure).
  /// Otherwise a merge of clusters A and B is accepted only if the confirmed
  /// pairs between them are at least 0.34·|A|·|B| once both clusters have
  /// more than one record (singleton merges always pass), which guards
  /// against a single false positive chaining large clusters.
  bool transitive_closure = false;
};

/// \brief A partition of the records into entities.
struct EntityClusters {
  /// cluster_of[record] = dense cluster id.
  std::vector<uint32_t> cluster_of;
  /// clusters[id] = member records, ascending.
  std::vector<std::vector<uint32_t>> clusters;

  size_t num_clusters() const { return clusters.size(); }
  /// Number of non-singleton clusters (actual duplicate groups).
  size_t num_duplicate_groups() const;
};

/// \brief Builds entity clusters from scored pairs over `num_records`
/// records. Pairs are processed in decreasing score order.
Result<EntityClusters> ResolveEntities(uint32_t num_records,
                                       const std::vector<eval::RankedPair>& pairs,
                                       const ResolutionOptions& options = {});

/// \brief The members of `record`'s cluster, ascending, read off cluster
/// rings: `next[r]` is the record after r on its cluster's ring (a circular
/// successor list, so a singleton is `next[r] == r`).
std::vector<uint32_t> RingMembers(const std::vector<uint32_t>& next, uint32_t record);

/// \brief Canonicalizes cluster rings the way ResolveEntities does: dense
/// cluster ids ordered by smallest member, members ascending.
EntityClusters ClustersFromRings(const std::vector<uint32_t>& next);

/// \brief Bounded-memory entity clustering for the partitioned streaming
/// workflow and the resident service: a union-find over the records that
/// consumes *matched pairs* in batches of any size and order, instead of a
/// materialized, sorted edge list. Resident state is O(records),
/// independent of how many pairs flow through; the record universe can
/// grow (AddRecord) as a service ingests.
///
/// Semantics are pure transitive closure — batch order cannot matter,
/// because the cross-support heuristic of ResolveEntities needs the full
/// confirmed edge list, which is exactly what a bounded run cannot hold.
/// That order-insensitivity is also what lets serve's crowd loop apply
/// verdicts from a background thread and still reach a deterministic
/// final partition.
///
/// Beside the union-find it keeps every cluster as a ring (`rings()`): a
/// merge swaps the ring successors of its two records, which splices their
/// rings into one. A copy of the rings is a complete partition, which is
/// how the service publishes snapshots (serve/snapshot.h).
/// CurrentClusters() canonicalizes the rings exactly like ResolveEntities
/// (ClustersFromRings), so for any input the result equals
/// `ResolveEntities(n, pairs, {.transitive_closure = true})` over the pairs
/// at or above the caller's threshold — a property the resolution tests
/// pin. Not thread-safe.
class StreamingResolver {
 public:
  /// \brief Prepares a resolver over records [0, num_records).
  explicit StreamingResolver(uint32_t num_records = 0);

  /// \brief Adds the next record as its own singleton cluster; returns its
  /// id (num_records() before the call).
  uint32_t AddRecord();

  /// \brief Merges one confirmed match. Fails on out-of-range records or
  /// self-pairs (mirroring ResolveEntities' validation).
  Status AddMatch(uint32_t a, uint32_t b);

  /// \brief Records seen so far.
  uint32_t num_records() const;

  /// \brief The cluster rings: `rings()[r]` is the record after r on its
  /// cluster's ring.
  const std::vector<uint32_t>& rings() const { return next_; }

  /// \brief Canonicalizes the current partition. Repeatable; matches and
  /// records may be added between reads.
  EntityClusters CurrentClusters() const;

  /// \brief CurrentClusters, terminally: the resolver takes no more input.
  Result<EntityClusters> Finish();

 private:
  graph::UnionFind uf_;
  std::vector<uint32_t> next_;  ///< ring successor of each record
  bool finished_ = false;
};

/// \brief Pairwise clustering quality against ground truth: precision /
/// recall / F1 over the set of same-cluster pairs.
struct ClusteringQuality {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  uint64_t predicted_pairs = 0;
  uint64_t true_pairs = 0;
};
ClusteringQuality EvaluateClusters(const EntityClusters& clusters,
                                   const data::Dataset& dataset);

/// \brief Materializes a deduplicated table: one canonical record per
/// cluster (the member with the longest concatenated text, a simple
/// merge/purge rule).
data::Table MergeClusters(const data::Table& table, const EntityClusters& clusters);

}  // namespace core
}  // namespace crowder

#endif  // CROWDER_CORE_RESOLUTION_H_

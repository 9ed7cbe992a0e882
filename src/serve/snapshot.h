// Epoch snapshots: how the service answers queries without ever blocking
// ingest. Writers (ingest + the crowd-apply loop) periodically publish an
// immutable Snapshot; readers grab the current shared_ptr with an atomic
// load and read freely — no lock is ever taken on the query path, and a
// reader keeps its snapshot alive for as long as it holds the pointer even
// if many epochs are published meanwhile.
//
// What a snapshot holds: a copy of the resolver's cluster rings (one word
// per record, core::StreamingResolver::rings()) and the undecided crowd
// pairs in two sorted orders. A publish therefore copies one n-word array
// and sorts the pending pairs; it allocates nothing per cluster. A query
// walks the record's ring and sorts the members, and a snapshot names a
// cluster by its smallest member, so a later epoch never renumbers it.
// Clusters() canonicalizes the whole partition to the dense ids of
// core::ResolveEntities.
//
// The consistency contract (pinned by serve_test's interleaving property):
// a snapshot is built under the service's state lock, so its clusters are
// exactly ResolveEntities (transitive closure) over the first
// `applied_matches` entries of the service's append-only match log, over
// `num_records` records — never a torn mixture of epochs.
#ifndef CROWDER_SERVE_SNAPSHOT_H_
#define CROWDER_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/resolution.h"

namespace crowder {
namespace serve {

/// \brief A candidate pair the crowd has been (or will be) asked about and
/// has not yet decided, as exposed to queries.
struct PendingPair {
  uint32_t a = 0;  ///< smaller record id
  uint32_t b = 0;  ///< larger record id
  double score = 0.0;  ///< machine likelihood
};

/// \brief One immutable epoch of service state.
struct Snapshot {
  /// Monotone publish counter (epoch 0 = the empty pre-ingest snapshot).
  uint64_t epoch = 0;
  /// Records ingested when the snapshot was built.
  uint32_t num_records = 0;
  /// Prefix length of the service's append-only match log this snapshot's
  /// clusters reflect (the replay handle of the consistency contract).
  uint64_t applied_matches = 0;
  /// Candidate pairs discovered so far (auto-matched + crowd-bound).
  uint64_t candidate_pairs = 0;
  /// The partition at this epoch as cluster rings: next[r] is the record
  /// after r on its cluster's ring (`num_records` entries).
  std::vector<uint32_t> next;
  /// Undecided crowd-bound pairs, sorted by (a, b).
  std::vector<PendingPair> pending;
  /// Indices into `pending`, ordered by (b, a).
  std::vector<uint32_t> pending_by_b;

  /// \brief The pending pairs touching `record`, in `pending`'s order (two
  /// binary searches).
  std::vector<PendingPair> PendingOf(uint32_t record) const;

  /// \brief The partition at this epoch, canonicalized like
  /// core::ResolveEntities (dense ids ordered by smallest member).
  core::EntityClusters Clusters() const;
};

/// \brief Sorts `snapshot->pending` by (a, b) and fills `pending_by_b`: the
/// two orders PendingOf searches.
void SortPending(Snapshot* snapshot);

/// \brief Lock-free publish/read cell for the current snapshot.
///
/// C++17: synchronization uses the std::atomic_load/atomic_store free
/// functions on shared_ptr (the pre-C++20 spelling of
/// atomic<shared_ptr>). Publish is release, Get is acquire, so a reader
/// that observes an epoch observes every byte of it.
class SnapshotStore {
 public:
  /// \brief Starts at an empty epoch-0 snapshot, so Get never returns null.
  SnapshotStore();

  /// \brief Current snapshot (never null; wait-free atomic load).
  std::shared_ptr<const Snapshot> Get() const;

  /// \brief Atomically replaces the current snapshot. The caller assembles
  /// the snapshot fully before publishing; epochs must be monotone (the
  /// service's state lock serializes publishers).
  void Publish(std::shared_ptr<const Snapshot> snapshot);

 private:
  std::shared_ptr<const Snapshot> current_;
};

}  // namespace serve
}  // namespace crowder

#endif  // CROWDER_SERVE_SNAPSHOT_H_

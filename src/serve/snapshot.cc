#include "serve/snapshot.h"

#include <algorithm>
#include <atomic>
#include <numeric>

namespace crowder {
namespace serve {

std::vector<PendingPair> Snapshot::PendingOf(uint32_t record) const {
  std::vector<PendingPair> out;
  // In (a, b) order the pairs whose larger record is `record` come first.
  auto by_b = std::partition_point(pending_by_b.begin(), pending_by_b.end(),
                                   [&](uint32_t i) { return pending[i].b < record; });
  for (; by_b != pending_by_b.end() && pending[*by_b].b == record; ++by_b) {
    out.push_back(pending[*by_b]);
  }
  auto by_a = std::partition_point(pending.begin(), pending.end(),
                                   [&](const PendingPair& p) { return p.a < record; });
  for (; by_a != pending.end() && by_a->a == record; ++by_a) out.push_back(*by_a);
  return out;
}

core::EntityClusters Snapshot::Clusters() const { return core::ClustersFromRings(next); }

void SortPending(Snapshot* snapshot) {
  const std::vector<PendingPair>& pending = snapshot->pending;
  std::sort(snapshot->pending.begin(), snapshot->pending.end(),
            [](const PendingPair& x, const PendingPair& y) {
              return x.a != y.a ? x.a < y.a : x.b < y.b;
            });
  snapshot->pending_by_b.resize(pending.size());
  std::iota(snapshot->pending_by_b.begin(), snapshot->pending_by_b.end(), 0);
  std::sort(snapshot->pending_by_b.begin(), snapshot->pending_by_b.end(),
            [&](uint32_t i, uint32_t j) {
              return pending[i].b != pending[j].b ? pending[i].b < pending[j].b
                                                  : pending[i].a < pending[j].a;
            });
}

SnapshotStore::SnapshotStore() : current_(std::make_shared<const Snapshot>()) {}

std::shared_ptr<const Snapshot> SnapshotStore::Get() const {
  return std::atomic_load_explicit(&current_, std::memory_order_acquire);
}

void SnapshotStore::Publish(std::shared_ptr<const Snapshot> snapshot) {
  std::atomic_store_explicit(&current_, std::move(snapshot), std::memory_order_release);
}

}  // namespace serve
}  // namespace crowder

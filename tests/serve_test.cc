// End-to-end tests of the resident service (serve/service.h), pinning the
// two halves of its contract:
//
//  * Snapshot consistency — every observed snapshot's clusters equal
//    ResolveEntities (pure transitive closure) over exactly the first
//    `applied_matches` entries of the append-only match log, whatever the
//    interleaving of ingest, queries, and crowd verdicts that produced it.
//  * Terminal determinism — Finish()'s partition is bitwise equal to
//    BatchResolve's over the same (dataset order, config), in every
//    execution shape: inline or background rounds, synchronous or
//    async/partial verdict delivery.
//
// The background variants run readers concurrently with ingest and the
// crowd loop; they double as the serving stack's TSan targets.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/resolution.h"
#include "data/generators.h"
#include "eval/metrics.h"
#include "serve/service.h"

namespace crowder {
namespace serve {
namespace {

data::Dataset SmallRestaurant() {
  data::RestaurantConfig config;
  config.scale_factor = 0.5;
  auto dataset = data::GenerateRestaurant(config);
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return *std::move(dataset);
}

void ExpectClustersEqual(const core::EntityClusters& got, const core::EntityClusters& want) {
  EXPECT_EQ(got.cluster_of, want.cluster_of);
  EXPECT_EQ(got.clusters, want.clusters);
}

// The closure over the first `applied_matches` entries of the match log: the
// partition a snapshot claims, built from scratch.
core::EntityClusters ReplayedClusters(const EntityResolutionService& service,
                                      const Snapshot& snapshot) {
  const auto prefix = service.AppliedMatchPrefix(snapshot.applied_matches);
  EXPECT_EQ(prefix.size(), snapshot.applied_matches);
  std::vector<eval::RankedPair> edges;
  edges.reserve(prefix.size());
  for (const auto& [a, b] : prefix) edges.push_back({a, b, 1.0, false});
  core::ResolutionOptions options;
  options.transitive_closure = true;
  auto replayed = core::ResolveEntities(snapshot.num_records, edges, options);
  EXPECT_TRUE(replayed.ok()) << replayed.status().ToString();
  return replayed.ok() ? *std::move(replayed) : core::EntityClusters{};
}

// Replays the match-log prefix a snapshot claims: the closure over exactly
// its first `applied_matches` entries must reproduce its clusters.
void ExpectSnapshotConsistent(const EntityResolutionService& service, const Snapshot& snapshot) {
  ExpectClustersEqual(snapshot.Clusters(), ReplayedClusters(service, snapshot));
}

void ExpectCrowdAccountingEqual(const crowd::CrowdRunResult& got,
                                const crowd::CrowdRunResult& want) {
  EXPECT_EQ(got.num_assignments, want.num_assignments);
  EXPECT_EQ(got.total_comparisons, want.total_comparisons);
  EXPECT_EQ(got.num_distinct_workers, want.num_distinct_workers);
  EXPECT_EQ(got.num_spammer_assignments, want.num_spammer_assignments);
  EXPECT_EQ(got.cost_dollars, want.cost_dollars);
  EXPECT_EQ(got.median_assignment_seconds, want.median_assignment_seconds);
}

// Runs the service over the whole dataset in the given shape and checks the
// terminal report against the batch reference.
void ExpectMatchesBatch(const data::Dataset& dataset, ServiceConfig config) {
  auto service = EntityResolutionService::Create(config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  for (uint32_t r = 0; r < dataset.table.num_records(); ++r) {
    auto outcome = (*service)->InsertDatasetRecord(dataset, r);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome->record_id, r);
  }
  auto report = (*service)->Finish();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto batch = BatchResolve(dataset, config);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ExpectClustersEqual(report->clusters, batch->clusters);
  EXPECT_EQ(report->stats.candidate_pairs, batch->stats.candidate_pairs);
  EXPECT_EQ(report->stats.auto_matches, batch->stats.auto_matches);
  EXPECT_EQ(report->stats.crowd_pairs, batch->stats.crowd_pairs);
  EXPECT_EQ(report->stats.crowd_decided, batch->stats.crowd_decided);
  EXPECT_EQ(report->stats.crowd_matches, batch->stats.crowd_matches);
  EXPECT_EQ(report->stats.applied_matches, batch->stats.applied_matches);
  ExpectCrowdAccountingEqual(report->crowd, batch->crowd);
}

TEST(ServeTest, InlineSynchronousMatchesBatch) {
  const data::Dataset dataset = SmallRestaurant();
  ServiceConfig config;
  config.background = false;
  config.async_delivery = false;
  config.crowd_flush_pairs = 64;
  config.publish_interval = 16;
  config.seed = 7;
  ExpectMatchesBatch(dataset, config);
}

TEST(ServeTest, AsyncPartialDeliveryMatchesBatch) {
  const data::Dataset dataset = SmallRestaurant();
  ServiceConfig config;
  config.background = false;
  config.async_delivery = true;
  config.hits_per_poll = 2;
  config.crowd_flush_pairs = 32;
  config.pairs_per_hit = 5;
  config.seed = 7;
  ExpectMatchesBatch(dataset, config);
}

TEST(ServeTest, BackgroundRoundsMatchBatch) {
  const data::Dataset dataset = SmallRestaurant();
  ServiceConfig config;
  config.background = true;
  config.async_delivery = true;
  config.crowd_flush_pairs = 32;
  config.publish_interval = 8;
  config.seed = 9;
  ExpectMatchesBatch(dataset, config);
}

// The two-source rule must be wired through the service config: Product
// records only pair across sources, and BatchResolve reads that rule off the
// dataset's own labels. (Regression: first found by crowder_bench_serve
// --compare-batch at scale 25, where an ungated service saw same-source
// candidates the batch pipeline never generates.)
TEST(ServeTest, TwoSourceProductMatchesBatch) {
  data::ProductConfig product;
  product.scale_factor = 0.1;
  auto dataset = data::GenerateProduct(product);
  ASSERT_TRUE(dataset.ok());
  ASSERT_FALSE(dataset->table.sources.empty());
  ServiceConfig config;
  config.threshold = 0.5;
  config.cross_source_only = true;
  config.background = true;
  config.async_delivery = true;
  config.crowd_flush_pairs = 32;
  config.seed = 13;
  ExpectMatchesBatch(*dataset, config);
}

TEST(ServeTest, FlushSizeAndHitPackingAreInvisible) {
  // The per-pair verdict seeding makes round boundaries and HIT packing
  // invisible: radically different flush/packing shapes, identical report.
  const data::Dataset dataset = SmallRestaurant();
  ServiceConfig small;
  small.background = false;
  small.async_delivery = false;
  small.crowd_flush_pairs = 7;
  small.pairs_per_hit = 3;
  ExpectMatchesBatch(dataset, small);
  ServiceConfig large = small;
  large.crowd_flush_pairs = 100000;  // one giant round at Finish
  large.pairs_per_hit = 50;
  ExpectMatchesBatch(dataset, large);
}

TEST(ServeTest, AutoMatchEverythingSkipsTheCrowd) {
  const data::Dataset dataset = SmallRestaurant();
  ServiceConfig config;
  config.background = false;
  config.auto_match_threshold = 0.0;  // every candidate is machine-accepted
  auto service = EntityResolutionService::Create(config);
  ASSERT_TRUE(service.ok());
  for (uint32_t r = 0; r < dataset.table.num_records(); ++r) {
    ASSERT_TRUE((*service)->InsertDatasetRecord(dataset, r).ok());
  }
  auto report = (*service)->Finish();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->stats.crowd_pairs, 0u);
  EXPECT_EQ(report->crowd.num_assignments, 0u);
  EXPECT_EQ(report->stats.auto_matches, report->stats.candidate_pairs);

  auto batch = BatchResolve(dataset, config);
  ASSERT_TRUE(batch.ok());
  ExpectClustersEqual(report->clusters, batch->clusters);
}

TEST(ServeTest, SnapshotsStayConsistentDuringInlineIngest) {
  const data::Dataset dataset = SmallRestaurant();
  ServiceConfig config;
  config.background = false;
  config.async_delivery = true;
  config.hits_per_poll = 1;
  config.crowd_flush_pairs = 24;
  config.publish_interval = 4;
  auto service = EntityResolutionService::Create(config);
  ASSERT_TRUE(service.ok());

  uint64_t last_epoch = 0;
  for (uint32_t r = 0; r < dataset.table.num_records(); ++r) {
    ASSERT_TRUE((*service)->InsertDatasetRecord(dataset, r).ok());
    if (r % 37 == 0) {
      const std::shared_ptr<const Snapshot> snap = (*service)->CurrentSnapshot();
      EXPECT_GE(snap->epoch, last_epoch);
      last_epoch = snap->epoch;
      ExpectSnapshotConsistent(**service, *snap);
    }
  }
  ASSERT_TRUE((*service)->Flush().ok());
  const std::shared_ptr<const Snapshot> final_snap = (*service)->CurrentSnapshot();
  EXPECT_EQ(final_snap->num_records, dataset.table.num_records());
  EXPECT_TRUE(final_snap->pending.empty());  // Flush drained the crowd queue
  ExpectSnapshotConsistent(**service, *final_snap);
}

TEST(ServeTest, QueriesReadPendingPairsAndClusters) {
  const data::Dataset dataset = SmallRestaurant();
  ServiceConfig config;
  config.background = false;
  config.crowd_flush_pairs = 1000000;  // nothing flushes until we say so
  config.publish_interval = 1;
  auto service = EntityResolutionService::Create(config);
  ASSERT_TRUE(service.ok());

  // Epoch 0 holds no records: every query is NotFound.
  EXPECT_FALSE((*service)->Query(0).ok());

  uint32_t queued_record = UINT32_MAX;
  for (uint32_t r = 0; r < dataset.table.num_records(); ++r) {
    auto outcome = (*service)->InsertDatasetRecord(dataset, r);
    ASSERT_TRUE(outcome.ok());
    if (queued_record == UINT32_MAX && outcome->queued_for_crowd > 0) queued_record = r;
  }
  ASSERT_NE(queued_record, UINT32_MAX) << "dataset produced no crowd-bound pairs";

  // Before the flush the queued pair is visible as pending on both sides.
  auto pending_view = (*service)->Query(queued_record);
  ASSERT_TRUE(pending_view.ok()) << pending_view.status().ToString();
  EXPECT_FALSE(pending_view->pending.empty());
  for (const PendingPair& p : pending_view->pending) {
    EXPECT_TRUE(p.a == queued_record || p.b == queued_record);
  }

  ASSERT_TRUE((*service)->Flush().ok());
  auto resolved_view = (*service)->Query(queued_record);
  ASSERT_TRUE(resolved_view.ok());
  EXPECT_TRUE(resolved_view->pending.empty());
  EXPECT_FALSE(resolved_view->members.empty());
  // The member list is the record's cluster in the snapshot's partition,
  // named by its smallest member.
  const std::shared_ptr<const Snapshot> snap = (*service)->CurrentSnapshot();
  const core::EntityClusters partition = snap->Clusters();
  EXPECT_EQ(resolved_view->members, partition.clusters[partition.cluster_of[queued_record]]);
  EXPECT_EQ(resolved_view->cluster_id, resolved_view->members.front());
  EXPECT_FALSE((*service)->Query(snap->num_records).ok());  // past the end
}

// Every record of every epoch, against a from-scratch build: the inline
// service with publish_interval 1 publishes at least once per insert, and
// the snapshot after each insert (and after the final Flush) must answer
// every query exactly as the closure over its match-log prefix does, with
// PendingOf equal to a linear filter of the pending list.
TEST(ServeTest, EveryEpochAnswersLikeAFromScratchBuild) {
  const data::Dataset dataset = SmallRestaurant();
  ServiceConfig config;
  config.background = false;
  config.async_delivery = true;
  config.hits_per_poll = 1;
  config.crowd_flush_pairs = 24;
  config.publish_interval = 1;
  config.auto_match_threshold = 0.8;  // merges between rounds too
  config.seed = 11;
  auto service = EntityResolutionService::Create(config);
  ASSERT_TRUE(service.ok());

  uint64_t checked_epochs = 0;
  uint64_t checked_pending = 0;
  uint64_t last_epoch = 0;
  auto check_current = [&]() {
    const std::shared_ptr<const Snapshot> snap = (*service)->CurrentSnapshot();
    ASSERT_GT(snap->epoch, last_epoch);
    last_epoch = snap->epoch;
    const core::EntityClusters want = ReplayedClusters(**service, *snap);
    ExpectClustersEqual(snap->Clusters(), want);
    for (uint32_t r = 0; r < snap->num_records; ++r) {
      auto view = (*service)->Query(r);
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      const std::vector<uint32_t>& members = want.clusters[want.cluster_of[r]];
      ASSERT_EQ(view->members, members) << "epoch " << snap->epoch << " record " << r;
      ASSERT_EQ(view->cluster_id, members.front()) << "epoch " << snap->epoch;
      std::vector<PendingPair> filtered;
      for (const PendingPair& p : snap->pending) {
        if (p.a == r || p.b == r) filtered.push_back(p);
      }
      ASSERT_EQ(view->pending.size(), filtered.size()) << "epoch " << snap->epoch;
      for (size_t i = 0; i < filtered.size(); ++i) {
        EXPECT_EQ(view->pending[i].a, filtered[i].a);
        EXPECT_EQ(view->pending[i].b, filtered[i].b);
        EXPECT_EQ(view->pending[i].score, filtered[i].score);
      }
      checked_pending += filtered.size();
    }
    ++checked_epochs;
  };

  for (uint32_t r = 0; r < dataset.table.num_records(); ++r) {
    ASSERT_TRUE((*service)->InsertDatasetRecord(dataset, r).ok());
    check_current();
  }
  ASSERT_TRUE((*service)->Flush().ok());
  check_current();
  EXPECT_EQ(checked_epochs, dataset.table.num_records() + 1u);
  EXPECT_GT(checked_pending, 0u);  // the pending lookups were exercised
  auto report = (*service)->Finish();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->stats.auto_matches, 0u);
  EXPECT_GT(report->stats.crowd_matches, 0u);
}

TEST(ServeTest, ConcurrentReadersObserveConsistentSnapshots) {
  const data::Dataset dataset = SmallRestaurant();
  ServiceConfig config;
  config.background = true;
  config.async_delivery = true;
  config.hits_per_poll = 2;
  config.crowd_flush_pairs = 16;
  config.publish_interval = 4;
  config.seed = 13;
  auto service = EntityResolutionService::Create(config);
  ASSERT_TRUE(service.ok());

  // Readers hammer Query/CurrentSnapshot while ingest and the background
  // crowd loop run; sampled snapshots are replay-checked afterwards (the
  // match log is append-only, so the check stays valid post-hoc).
  std::atomic<bool> done{false};
  std::vector<std::shared_ptr<const Snapshot>> sampled;
  std::thread sampler([&] {
    uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::shared_ptr<const Snapshot> snap = (*service)->CurrentSnapshot();
      EXPECT_GE(snap->epoch, last_epoch);
      EXPECT_EQ(snap->next.size(), snap->num_records);
      last_epoch = snap->epoch;
      if (sampled.empty() || sampled.back()->epoch != snap->epoch) sampled.push_back(snap);
    }
  });
  std::thread querier([&] {
    uint32_t hits = 0;
    while (!done.load(std::memory_order_acquire)) {
      auto view = (*service)->Query(hits % 97);
      if (view.ok()) {
        EXPECT_FALSE(view->members.empty());
      }
      ++hits;
    }
  });

  for (uint32_t r = 0; r < dataset.table.num_records(); ++r) {
    ASSERT_TRUE((*service)->InsertDatasetRecord(dataset, r).ok());
  }
  ASSERT_TRUE((*service)->Flush().ok());
  done.store(true, std::memory_order_release);
  sampler.join();
  querier.join();

  ASSERT_FALSE(sampled.empty());
  for (const auto& snap : sampled) ExpectSnapshotConsistent(**service, *snap);

  auto report = (*service)->Finish();
  ASSERT_TRUE(report.ok());
  auto batch = BatchResolve(dataset, config);
  ASSERT_TRUE(batch.ok());
  ExpectClustersEqual(report->clusters, batch->clusters);
  ExpectCrowdAccountingEqual(report->crowd, batch->crowd);
}

TEST(ServeTest, RejectsBadConfigs) {
  ServiceConfig config;
  config.threshold = 0.0;
  EXPECT_FALSE(EntityResolutionService::Create(config).ok());
  config = ServiceConfig{};
  config.match_threshold = 1.5;
  EXPECT_FALSE(EntityResolutionService::Create(config).ok());
  config = ServiceConfig{};
  config.model.assignments_per_hit = 1000000;  // more than the worker pool
  EXPECT_FALSE(EntityResolutionService::Create(config).ok());
}

}  // namespace
}  // namespace serve
}  // namespace crowder

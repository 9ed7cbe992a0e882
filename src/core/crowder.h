// Umbrella header: include this to use the CrowdER library.
//
//   #include "core/crowder.h"
//
//   crowder::data::RestaurantConfig cfg;
//   auto dataset = crowder::data::GenerateRestaurant(cfg).ValueOrDie();
//   crowder::core::WorkflowConfig wf;
//   wf.likelihood_threshold = 0.35;
//   auto result = crowder::core::HybridWorkflow(wf).Run(dataset).ValueOrDie();
//
// See README.md for the architecture overview and examples/ for runnable
// programs.
#ifndef CROWDER_CORE_CROWDER_H_
#define CROWDER_CORE_CROWDER_H_

#include "aggregate/dawid_skene.h"
#include "aggregate/majority_vote.h"
#include "aggregate/partitioned.h"
#include "aggregate/votes.h"
#include "common/csv.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/spill.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/budget_planner.h"
#include "core/driver.h"
#include "core/partition.h"
#include "core/pipeline.h"
#include "core/resolution.h"
#include "core/stages.h"
#include "core/workflow.h"
#include "crowd/backend.h"
#include "crowd/crowd_model.h"
#include "crowd/platform.h"
#include "crowd/vote_log.h"
#include "crowd/worker.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "data/statistics.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "graph/connected_components.h"
#include "graph/pair_graph.h"
#include "graph/traversal.h"
#include "graph/union_find.h"
#include "hitgen/approximation_generator.h"
#include "hitgen/baseline_generators.h"
#include "hitgen/cluster_generator.h"
#include "hitgen/comparison_model.h"
#include "hitgen/hit.h"
#include "hitgen/packing.h"
#include "hitgen/pair_hit_generator.h"
#include "hitgen/two_tiered_generator.h"
#include "lp/cutting_stock.h"
#include "lp/knapsack.h"
#include "lp/simplex.h"
#include "ml/active_learning.h"
#include "ml/features.h"
#include "ml/linear_svm.h"
#include "ml/scaler.h"
#include "similarity/blocking.h"
#include "similarity/edit_distance.h"
#include "similarity/parallel_join.h"
#include "similarity/set_similarity.h"
#include "similarity/similarity_join.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

#endif  // CROWDER_CORE_CROWDER_H_

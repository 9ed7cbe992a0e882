#include "core/budget_planner.h"

#include <algorithm>

#include "graph/pair_graph.h"
#include "hitgen/two_tiered_generator.h"

namespace crowder {
namespace core {

Result<BudgetPlan> PlanForBudget(const data::Dataset& dataset, double budget_dollars,
                                 const WorkflowConfig& base_config,
                                 const std::vector<double>& thresholds) {
  CROWDER_RETURN_NOT_OK(ValidateWorkflowConfig(base_config));
  if (thresholds.empty()) {
    return Status::InvalidArgument("at least one candidate threshold required");
  }
  if (budget_dollars < 0.0) {
    return Status::InvalidArgument("budget must be non-negative");
  }
  const uint64_t total_matches = dataset.CountMatchingPairs();
  if (total_matches == 0) {
    return Status::InvalidArgument("dataset has no matching pairs");
  }

  BudgetPlan plan;
  for (double threshold : thresholds) {
    CROWDER_ASSIGN_OR_RETURN(
        auto pairs,
        HybridWorkflow::MachinePass(dataset, base_config.measure, threshold,
                                    CandidateStrategy::kAllPairsJoin, base_config.num_threads));

    BudgetPoint point;
    point.threshold = threshold;
    point.num_pairs = pairs.size();

    uint64_t matches = 0;
    for (const auto& p : pairs) {
      if (dataset.truth.IsMatch(p.a, p.b)) ++matches;
    }
    point.machine_recall = static_cast<double>(matches) / static_cast<double>(total_matches);

    if (!pairs.empty()) {
      std::vector<graph::Edge> edges;
      edges.reserve(pairs.size());
      for (const auto& p : pairs) edges.push_back({p.a, p.b});
      CROWDER_ASSIGN_OR_RETURN(
          auto graph,
          graph::PairGraph::Create(static_cast<uint32_t>(dataset.table.num_records()), edges));
      hitgen::TwoTieredGenerator generator;
      CROWDER_ASSIGN_OR_RETURN(auto hits, generator.Generate(&graph, base_config.cluster_size));
      point.num_hits = static_cast<uint32_t>(hits.size());
    }
    point.cost_dollars = static_cast<double>(point.num_hits) *
                         base_config.crowd.assignments_per_hit *
                         base_config.crowd.CostPerAssignment();
    plan.evaluated.push_back(point);
  }

  std::sort(plan.evaluated.begin(), plan.evaluated.end(),
            [](const BudgetPoint& a, const BudgetPoint& b) { return a.threshold > b.threshold; });
  for (const BudgetPoint& point : plan.evaluated) {
    if (point.cost_dollars <= budget_dollars &&
        (!plan.feasible || point.machine_recall > plan.chosen.machine_recall)) {
      plan.chosen = point;
      plan.feasible = true;
    }
  }
  return plan;
}

}  // namespace core
}  // namespace crowder

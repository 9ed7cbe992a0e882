// Budget-based hybrid entity resolution — the paper's §9 future-work sketch
// ("Users may wish to trade off cost, quality and latency") implemented as a
// planning tool: given a dollar budget, choose the lowest likelihood
// threshold whose crowdsourcing cost fits, since lower thresholds buy more
// recall with more HITs.
#ifndef CROWDER_CORE_BUDGET_PLANNER_H_
#define CROWDER_CORE_BUDGET_PLANNER_H_

#include <vector>

#include "common/result.h"
#include "core/workflow.h"

namespace crowder {
namespace core {

/// \brief One evaluated operating point of the cost/recall tradeoff.
struct BudgetPoint {
  double threshold = 0.0;
  uint64_t num_pairs = 0;     ///< surviving candidate pairs
  uint32_t num_hits = 0;      ///< cluster-based HITs (two-tiered)
  double cost_dollars = 0.0;  ///< HITs * assignments * cost-per-assignment
  /// Machine-pass recall at this threshold (requires ground truth; this is
  /// a what-if planning tool for simulation studies).
  double machine_recall = 0.0;
};

struct BudgetPlan {
  /// The chosen operating point (maximum recall within budget), plus every
  /// evaluated point for reporting.
  BudgetPoint chosen;
  std::vector<BudgetPoint> evaluated;
  bool feasible = false;  ///< false when even the highest threshold overruns
};

/// \brief Evaluates `thresholds` (any order) and picks the point with the
/// highest machine recall whose cost fits `budget_dollars`. Rejects a
/// `base_config` that ValidateWorkflowConfig rejects.
Result<BudgetPlan> PlanForBudget(const data::Dataset& dataset, double budget_dollars,
                                 const WorkflowConfig& base_config,
                                 const std::vector<double>& thresholds);

}  // namespace core
}  // namespace crowder

#endif  // CROWDER_CORE_BUDGET_PLANNER_H_

#include "core/question_policy.h"

#include <algorithm>
#include <utility>

namespace crowder {
namespace core {

// A likely match between two grown clusters collapses |A| * |B| open
// questions at once; a long-shot pair between singletons settles only
// itself.
double SelectionGain(graph::AnswerClosure* closure, const PendingQuestion& question) {
  const double sa = closure != nullptr ? closure->ClusterSize(question.pair.a) : 1.0;
  const double sb = closure != nullptr ? closure->ClusterSize(question.pair.b) : 1.0;
  return question.pair.score * sa * sb;
}

void RankByGain(graph::AnswerClosure* closure, std::vector<PendingQuestion>* pending) {
  // Score once, then stable-sort: the gain reads mutable closure state, so
  // calling it inside the comparator would be both slow and fragile.
  std::vector<std::pair<double, PendingQuestion>> scored;
  scored.reserve(pending->size());
  for (const PendingQuestion& q : *pending) scored.emplace_back(SelectionGain(closure, q), q);
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& x, const auto& y) { return x.first > y.first; });
  pending->clear();
  for (auto& [gain, q] : scored) pending->push_back(q);
}

const char* QuestionPolicyName(QuestionPolicyKind kind) {
  return kind == QuestionPolicyKind::kInferenceOrdered ? "adaptive" : "fixed";
}

}  // namespace core
}  // namespace crowder

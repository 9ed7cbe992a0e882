/// \file
/// \brief The question-selection ranking of `core::WorkflowDriver`: which
/// pending pairs to put to the crowd next under adaptive selection.
///
/// CrowdER fixes *what* is asked (the HITs) but not *in what order*, and
/// order is where crowd cost hides: answered pairs imply unanswered ones
/// through the transitive closure (graph/answer_closure.h), so asking the
/// most informative pairs first lets the closure answer the rest for free.
/// Under `kInferenceOrdered` the driver ranks between selection sub-rounds:
///
///   pending pairs --closure sweep--> inferred (skipped, recorded)
///                 --RankByGain-----> next sub-round's questions
///
/// The gain is machine likelihood weighted by the records' current cluster
/// sizes (the degree / component-size heuristic of "Select Your Questions
/// Wisely", Yalavarthi et al., PAPERS.md). `kFixedOrder` ranks nothing: the
/// driver posts each context whole, in the machine pass' sorted order. The
/// dataflow and the retraction contract are documented in
/// docs/ARCHITECTURE.md.
#ifndef CROWDER_CORE_QUESTION_POLICY_H_
#define CROWDER_CORE_QUESTION_POLICY_H_

#include <cstdint>
#include <vector>

#include "core/workflow.h"
#include "graph/answer_closure.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace core {

/// \brief One not-yet-asked candidate pair, as the selection layer sees it:
/// the scored pair (record ids + machine likelihood) and its global index
/// in the sorted pair order (the vote-filing key).
struct PendingQuestion {
  similarity::ScoredPair pair;
  uint64_t global_index = 0;
};

/// \brief Expected information gain of asking `question` given the
/// closure's current state: the likelihood it is a match times the number
/// of record pairs a match would connect (the product of the two records'
/// cluster sizes). Non-const closure: cluster-size lookups path-compress.
/// `closure` may be null (treated as all-singleton).
double SelectionGain(graph::AnswerClosure* closure, const PendingQuestion& question);

/// \brief Reorders `pending` by descending SelectionGain. Stable on ties,
/// so equal-gain questions keep their sorted (a, b) order — the
/// determinism anchor.
void RankByGain(graph::AnswerClosure* closure, std::vector<PendingQuestion>* pending);

/// \brief Stable lowercase name ("fixed" / "adaptive") — the CLI flag
/// vocabulary of `--select=`.
const char* QuestionPolicyName(QuestionPolicyKind kind);

}  // namespace core
}  // namespace crowder

#endif  // CROWDER_CORE_QUESTION_POLICY_H_

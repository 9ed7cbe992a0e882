// The adaptive selection substrate, tested where it is subtle (tier1):
//
//  * graph::AnswerClosure unit semantics — positive (union) inference,
//    negative (cross-cluster constraint) inference, the match-dominance
//    contradiction policy, retraction-by-rebuild (Reset + replay);
//  * the 300-case soundness property — for random ground-truth partitions
//    and random truthful answer sets, every verdict the closure infers
//    equals what the crowd-would-have-said oracle (the partition itself)
//    produces; and
//  * order invariance — after any permutation of the answer sequence
//    (truthful or contradiction-laced), Infer answers identically on every
//    record pair;
//  * the selection ranking — core::SelectionGain is likelihood x cluster
//    sizes and core::RankByGain orders by it, deterministic and stable on
//    ties.
#include "core/question_policy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "graph/answer_closure.h"

namespace crowder {
namespace {

// ---------------------------------------------------------------------------
// AnswerClosure unit semantics
// ---------------------------------------------------------------------------

TEST(AnswerClosureTest, EmptyClosureInfersNothing) {
  graph::AnswerClosure closure(4);
  EXPECT_FALSE(closure.Infer(0, 1).has_value());
  EXPECT_FALSE(closure.Infer(2, 3).has_value());
  EXPECT_EQ(closure.num_answers(), 0u);
  EXPECT_EQ(closure.ClusterSize(0), 1u);
}

TEST(AnswerClosureTest, MatchChainImpliesTransitiveMatch) {
  graph::AnswerClosure closure(5);
  closure.AddAnswer(0, 1, true);
  closure.AddAnswer(1, 2, true);
  ASSERT_TRUE(closure.Infer(0, 2).has_value());
  EXPECT_TRUE(*closure.Infer(0, 2));
  EXPECT_EQ(closure.ClusterSize(1), 3u);
  // Records outside the chain stay unknown.
  EXPECT_FALSE(closure.Infer(0, 3).has_value());
}

TEST(AnswerClosureTest, NonMatchSpansWholeClusters) {
  graph::AnswerClosure closure(6);
  closure.AddAnswer(0, 1, true);   // cluster {0,1}
  closure.AddAnswer(2, 3, true);   // cluster {2,3}
  closure.AddAnswer(1, 2, false);  // the clusters are enemies
  for (const uint32_t a : {0u, 1u}) {
    for (const uint32_t b : {2u, 3u}) {
      ASSERT_TRUE(closure.Infer(a, b).has_value()) << a << "," << b;
      EXPECT_FALSE(*closure.Infer(a, b)) << a << "," << b;
    }
  }
  // A later union migrates the constraint with the cluster.
  closure.AddAnswer(3, 4, true);  // {2,3,4}
  ASSERT_TRUE(closure.Infer(0, 4).has_value());
  EXPECT_FALSE(*closure.Infer(0, 4));
  EXPECT_FALSE(closure.Infer(4, 5).has_value());
}

TEST(AnswerClosureTest, MatchDominatesContradictions) {
  graph::AnswerClosure closure(4);
  closure.AddAnswer(0, 1, false);
  closure.AddAnswer(0, 1, true);  // contradicts the constraint: union wins
  ASSERT_TRUE(closure.Infer(0, 1).has_value());
  EXPECT_TRUE(*closure.Infer(0, 1));
  EXPECT_EQ(closure.num_contradictions(), 1u);

  // Non-match on an already-connected pair is counted and ignored.
  closure.AddAnswer(1, 2, true);
  closure.AddAnswer(0, 2, false);
  ASSERT_TRUE(closure.Infer(0, 2).has_value());
  EXPECT_TRUE(*closure.Infer(0, 2));
  EXPECT_EQ(closure.num_contradictions(), 2u);
}

TEST(AnswerClosureTest, ResetForgetsEverything) {
  graph::AnswerClosure closure(4);
  closure.AddAnswer(0, 1, true);
  closure.AddAnswer(1, 2, false);
  closure.Reset();
  EXPECT_EQ(closure.num_answers(), 0u);
  EXPECT_EQ(closure.num_contradictions(), 0u);
  EXPECT_FALSE(closure.Infer(0, 1).has_value());
  EXPECT_FALSE(closure.Infer(1, 2).has_value());
  EXPECT_EQ(closure.ClusterSize(1), 1u);
}

TEST(AnswerClosureTest, RebuildFromSurvivingAnswersRetractsInference) {
  // The retraction contract in miniature: an inference justified by a since-
  // revised answer disappears after Reset + replay of the surviving answers.
  graph::AnswerClosure closure(3);
  closure.AddAnswer(0, 1, true);
  closure.AddAnswer(1, 2, true);
  ASSERT_TRUE(closure.Infer(0, 2).has_value());

  closure.Reset();
  closure.AddAnswer(0, 1, true);  // the (1,2) answer did not survive revision
  EXPECT_FALSE(closure.Infer(0, 2).has_value());
}

// ---------------------------------------------------------------------------
// Property: soundness against the ground-truth oracle, and order invariance
// ---------------------------------------------------------------------------

struct Answer {
  uint32_t a = 0;
  uint32_t b = 0;
  bool is_match = false;
};

// What the crowd would have said about (a, b): the ground-truth partition.
bool Oracle(const std::vector<uint32_t>& entity_of, uint32_t a, uint32_t b) {
  return entity_of[a] == entity_of[b];
}

// One random case: a partition of `n` records into entities, plus a random
// set of truthfully answered pairs.
struct RandomCase {
  std::vector<uint32_t> entity_of;
  std::vector<Answer> answers;
};

RandomCase MakeRandomCase(uint64_t seed, bool truthful) {
  Rng rng(seed);
  RandomCase c;
  const uint32_t n = static_cast<uint32_t>(rng.UniformInt(4, 24));
  const uint32_t entities = static_cast<uint32_t>(rng.UniformInt(1, n));
  c.entity_of.resize(n);
  for (uint32_t r = 0; r < n; ++r) {
    c.entity_of[r] = static_cast<uint32_t>(rng.Uniform(entities));
  }
  const uint32_t num_answers = static_cast<uint32_t>(rng.UniformInt(0, 3 * n));
  for (uint32_t i = 0; i < num_answers; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(n));
    const uint32_t b = static_cast<uint32_t>(rng.Uniform(n));
    if (a == b) continue;
    bool verdict = Oracle(c.entity_of, a, b);
    // The noisy variant flips ~20% of answers — contradiction-laced input
    // for the order-invariance property (soundness is only promised for
    // truthful answers).
    if (!truthful && rng.Bernoulli(0.2)) verdict = !verdict;
    c.answers.push_back({a, b, verdict});
  }
  return c;
}

// Deterministic Fisher-Yates with the repo Rng (std::shuffle is not
// platform-stable).
void Shuffle(Rng* rng, std::vector<Answer>* answers) {
  for (size_t i = answers->size(); i > 1; --i) {
    std::swap((*answers)[i - 1], (*answers)[rng->Uniform(i)]);
  }
}

class AnswerClosureProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnswerClosureProperty, InferredVerdictsMatchTheOracle) {
  // 3 random cases per seed x 100 seeds = 300 cases.
  for (uint64_t variant = 0; variant < 3; ++variant) {
    const RandomCase c = MakeRandomCase(GetParam() * 1000 + variant, /*truthful=*/true);
    const uint32_t n = static_cast<uint32_t>(c.entity_of.size());
    graph::AnswerClosure closure(n);
    for (const Answer& ans : c.answers) closure.AddAnswer(ans.a, ans.b, ans.is_match);
    EXPECT_EQ(closure.num_contradictions(), 0u);  // truthful input is consistent

    size_t inferred = 0;
    for (uint32_t a = 0; a < n; ++a) {
      for (uint32_t b = a + 1; b < n; ++b) {
        const std::optional<bool> verdict = closure.Infer(a, b);
        if (!verdict.has_value()) continue;
        ++inferred;
        EXPECT_EQ(*verdict, Oracle(c.entity_of, a, b))
            << "seed " << GetParam() << " variant " << variant << " pair (" << a << "," << b
            << ")";
      }
    }
    // Every answered pair is at minimum inferable as itself.
    size_t distinct_answered = 0;
    {
      std::vector<uint64_t> keys;
      for (const Answer& ans : c.answers) {
        keys.push_back((static_cast<uint64_t>(std::min(ans.a, ans.b)) << 32) |
                       std::max(ans.a, ans.b));
      }
      std::sort(keys.begin(), keys.end());
      distinct_answered = std::unique(keys.begin(), keys.end()) - keys.begin();
    }
    EXPECT_GE(inferred, distinct_answered);
  }
}

TEST_P(AnswerClosureProperty, InferenceIsOrderInvariant) {
  // Both truthful and contradiction-laced answer sets: match dominance makes
  // Infer order-invariant either way (see graph/answer_closure.h).
  for (const bool truthful : {true, false}) {
    RandomCase c = MakeRandomCase(GetParam() * 2000 + (truthful ? 0 : 1), truthful);
    const uint32_t n = static_cast<uint32_t>(c.entity_of.size());

    auto infer_all = [&](const std::vector<Answer>& answers) {
      graph::AnswerClosure closure(n);
      for (const Answer& ans : answers) closure.AddAnswer(ans.a, ans.b, ans.is_match);
      std::vector<std::optional<bool>> table;
      table.reserve(static_cast<size_t>(n) * n);
      for (uint32_t a = 0; a < n; ++a) {
        for (uint32_t b = a + 1; b < n; ++b) table.push_back(closure.Infer(a, b));
      }
      return table;
    };

    const auto baseline = infer_all(c.answers);
    Rng rng(GetParam() * 31 + 7);
    for (int permutation = 0; permutation < 4; ++permutation) {
      Shuffle(&rng, &c.answers);
      EXPECT_EQ(infer_all(c.answers), baseline)
          << "seed " << GetParam() << " truthful=" << truthful << " permutation "
          << permutation;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnswerClosureProperty, ::testing::Range<uint64_t>(1, 101));

// ---------------------------------------------------------------------------
// Selection ranking
// ---------------------------------------------------------------------------

std::vector<core::PendingQuestion> SomeQuestions() {
  // Likelihoods chosen so sorted order != gain order.
  std::vector<core::PendingQuestion> qs;
  auto add = [&](uint32_t a, uint32_t b, double score, uint64_t global) {
    core::PendingQuestion q;
    q.pair.a = a;
    q.pair.b = b;
    q.pair.score = score;
    q.global_index = global;
    qs.push_back(q);
  };
  add(0, 1, 0.4, 0);
  add(2, 3, 0.9, 1);
  add(4, 5, 0.6, 2);
  add(6, 7, 0.6, 3);  // gain-ties with (4,5) while clusters are singletons
  return qs;
}

TEST(QuestionPolicyTest, GainIsLikelihoodTimesClusterSizes) {
  const auto qs = SomeQuestions();
  // No closure: every record is a singleton.
  EXPECT_EQ(core::SelectionGain(nullptr, qs[1]), 0.9);
  graph::AnswerClosure closure(8);
  EXPECT_EQ(core::SelectionGain(&closure, qs[0]), 0.4);
  closure.AddAnswer(0, 6, true);
  closure.AddAnswer(1, 7, true);
  closure.AddAnswer(1, 5, true);
  EXPECT_EQ(core::SelectionGain(&closure, qs[0]), 0.4 * 2 * 3);
}

TEST(QuestionPolicyTest, RankByGainOrdersByLikelihoodTimesClusterSizes) {
  graph::AnswerClosure closure(8);

  // All singletons: pure likelihood order, stable on the 0.6 tie.
  auto qs = SomeQuestions();
  core::RankByGain(&closure, &qs);
  ASSERT_EQ(qs.size(), 4u);
  EXPECT_EQ(qs[0].global_index, 1u);  // 0.9
  EXPECT_EQ(qs[1].global_index, 2u);  // 0.6, earlier on tie
  EXPECT_EQ(qs[2].global_index, 3u);  // 0.6
  EXPECT_EQ(qs[3].global_index, 0u);  // 0.4

  // Grow clusters {0,6} and {1,7}: pairs (0,1) and (6,7) now carry 2x2
  // implications each and overtake the bare 0.9 singleton pair.
  closure.AddAnswer(0, 6, true);
  closure.AddAnswer(1, 7, true);
  qs = SomeQuestions();
  core::RankByGain(&closure, &qs);
  EXPECT_EQ(qs[0].global_index, 3u);  // 0.6 * 2 * 2 = 2.4
  EXPECT_EQ(qs[1].global_index, 0u);  // 0.4 * 2 * 2 = 1.6 beats 0.9
  EXPECT_EQ(qs[2].global_index, 1u);  // 0.9
  EXPECT_EQ(qs[3].global_index, 2u);  // 0.6
}

TEST(QuestionPolicyTest, NamesMatchTheCliVocabulary) {
  EXPECT_STREQ(core::QuestionPolicyName(core::QuestionPolicyKind::kFixedOrder), "fixed");
  EXPECT_STREQ(core::QuestionPolicyName(core::QuestionPolicyKind::kInferenceOrdered),
               "adaptive");
}

}  // namespace
}  // namespace crowder

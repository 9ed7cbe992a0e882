// Unit tests for similarity measures, including the paper's §2.1.1 worked
// Jaccard examples.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#if defined(__x86_64__) && !defined(CROWDER_DISABLE_SIMD)
#include <cpuid.h>
#endif

#include "common/rng.h"
#include "data/generators.h"
#include "similarity/edit_distance.h"
#include "similarity/overlap_simd.h"
#include "similarity/set_similarity.h"
#include "text/vocabulary.h"

namespace crowder {
namespace similarity {
namespace {

TokenSet Set(std::initializer_list<text::TokenId> ids) {
  return MakeTokenSet(std::vector<text::TokenId>(ids));
}

TEST(SetSimilarityTest, PaperJaccardExampleR1R2) {
  // §2.1.1: J(r1, r2) over Product Names
  //   r1 = "iPad Two 16GB WiFi White", r2 = "iPad 2nd generation 16GB WiFi White"
  // shared {ipad, 16gb, wifi, white} of union size 7 -> 4/7 = 0.57.
  text::Vocabulary vocab;
  const TokenSet r1 = MakeTokenSet(vocab.InternDocument("iPad Two 16GB WiFi White"));
  const TokenSet r2 = MakeTokenSet(vocab.InternDocument("iPad 2nd generation 16GB WiFi White"));
  EXPECT_NEAR(Jaccard(r1, r2), 4.0 / 7.0, 1e-9);
}

TEST(SetSimilarityTest, PaperJaccardExampleR1R3) {
  // J(r1, r3) = 0.25: r3 = "iPhone 4th generation White 16GB"; shared
  // {white, 16gb} of union size 8.
  text::Vocabulary vocab;
  const TokenSet r1 = MakeTokenSet(vocab.InternDocument("iPad Two 16GB WiFi White"));
  const TokenSet r3 = MakeTokenSet(vocab.InternDocument("iPhone 4th generation White 16GB"));
  EXPECT_NEAR(Jaccard(r1, r3), 0.25, 1e-9);
}

TEST(SetSimilarityTest, MakeTokenSetSortsAndDedups) {
  EXPECT_EQ(MakeTokenSet({5, 3, 5, 1}), (TokenSet{1, 3, 5}));
}

TEST(SetSimilarityTest, OverlapSize) {
  EXPECT_EQ(OverlapSize(Set({1, 2, 3}), Set({2, 3, 4})), 2u);
  EXPECT_EQ(OverlapSize(Set({1}), Set({2})), 0u);
  EXPECT_EQ(OverlapSize(Set({}), Set({1})), 0u);
}

TEST(SetSimilarityTest, GallopingMatchesLinearOnEdgeCases) {
  const std::vector<std::pair<TokenSet, TokenSet>> cases = {
      {Set({}), Set({})},
      {Set({}), Set({1, 2, 3})},
      {Set({5}), Set({1, 2, 3, 4, 5, 6, 7, 8})},
      {Set({1, 2, 3}), Set({1, 2, 3})},
      {Set({1, 9}), Set({2, 3, 4, 5, 6, 7, 8})},
      {Set({100}), Set({1})},
  };
  for (const auto& [a, b] : cases) {
    EXPECT_EQ(OverlapSizeGalloping(a, b), OverlapSizeLinear(a, b));
    EXPECT_EQ(OverlapSize(a, b), OverlapSizeLinear(a, b));
  }
}

// Asserts every intersection kernel against the linear reference, in both
// argument orders, including the threshold-aware OverlapSizeAtLeast at
// required ∈ {0, exact, exact + 1}. The AtLeast contract: the exact overlap
// whenever exact >= required, otherwise some value < required.
void ExpectKernelEquivalence(const TokenSet& a, const TokenSet& b, const std::string& label) {
  const size_t linear = OverlapSizeLinear(a, b);
  EXPECT_EQ(OverlapSizeGalloping(a, b), linear) << label;
  EXPECT_EQ(OverlapSizeGalloping(b, a), linear) << label;
  EXPECT_EQ(OverlapSizeSimd(a, b), linear) << label;
  EXPECT_EQ(OverlapSizeSimd(b, a), linear) << label;
  EXPECT_EQ(OverlapSize(a, b), linear) << label;
  EXPECT_EQ(OverlapSize(b, a), linear) << label;
  EXPECT_EQ(OverlapSizeAtLeast(a, b, 0), linear) << label;
  EXPECT_EQ(OverlapSizeAtLeast(a, b, linear), linear) << label;
  EXPECT_EQ(OverlapSizeAtLeast(b, a, linear), linear) << label;
  EXPECT_LT(OverlapSizeAtLeast(a, b, linear + 1), linear + 1) << label;
  EXPECT_LT(OverlapSizeAtLeast(b, a, linear + 1), linear + 1) << label;
}

TEST(SetSimilarityTest, KernelEquivalenceProperty) {
  // Randomized sweep across skewed size ratios — the regime the galloping
  // path exists for — plus balanced sizes where the SIMD merge dispatches.
  Rng rng(20260730);
  for (int trial = 0; trial < 400; ++trial) {
    const size_t small_size = static_cast<size_t>(rng.Uniform(40));
    const size_t ratio = 1 + static_cast<size_t>(rng.Uniform(64));
    const size_t large_size = small_size * ratio + static_cast<size_t>(rng.Uniform(8));
    const uint64_t universe = 1 + 4 * (small_size + large_size);
    TokenSet a;
    TokenSet b;
    for (size_t i = 0; i < small_size; ++i) {
      a.push_back(static_cast<text::TokenId>(rng.Uniform(universe)));
    }
    for (size_t i = 0; i < large_size; ++i) {
      b.push_back(static_cast<text::TokenId>(rng.Uniform(universe)));
    }
    a = MakeTokenSet(std::move(a));
    b = MakeTokenSet(std::move(b));
    ExpectKernelEquivalence(a, b, "trial " + std::to_string(trial));
  }
}

TEST(SetSimilarityTest, KernelEquivalenceAdversarialLengths) {
  // Every length 0–70 on one side crosses the SSE (4-lane) and AVX2
  // (8-lane) block boundaries many times over; the partner lengths hit the
  // boundary values exactly. Three densities so tails carry matches,
  // non-matches, and near-misses.
  Rng rng(20260808);
  for (size_t la = 0; la <= 70; ++la) {
    for (size_t lb : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u, 70u}) {
      for (uint64_t universe : {8u, 64u, 4096u}) {
        TokenSet a;
        TokenSet b;
        for (size_t i = 0; i < la; ++i) {
          a.push_back(static_cast<text::TokenId>(rng.Uniform(universe)));
        }
        for (size_t i = 0; i < lb; ++i) {
          b.push_back(static_cast<text::TokenId>(rng.Uniform(universe)));
        }
        a = MakeTokenSet(std::move(a));
        b = MakeTokenSet(std::move(b));
        ExpectKernelEquivalence(a, b, "la=" + std::to_string(la) + " lb=" + std::to_string(lb) +
                                          " universe=" + std::to_string(universe));
      }
    }
  }
}

TEST(SetSimilarityTest, KernelEquivalenceOnDatasets) {
  // Real token-id distributions from both source-gated generators,
  // including identical and fully disjoint records.
  Rng rng(42);
  for (const bool restaurant : {true, false}) {
    const data::Dataset dataset = restaurant ? data::GenerateRestaurant({}).ValueOrDie()
                                             : data::GenerateProduct({}).ValueOrDie();
    text::Vocabulary vocab;
    std::vector<TokenSet> sets;
    const uint32_t n = std::min<uint32_t>(static_cast<uint32_t>(dataset.table.num_records()), 300);
    for (uint32_t r = 0; r < n; ++r) {
      sets.push_back(MakeTokenSet(vocab.InternDocument(dataset.table.ConcatenatedRecord(r))));
    }
    for (int trial = 0; trial < 400; ++trial) {
      const auto& a = sets[rng.Uniform(sets.size())];
      const auto& b = sets[rng.Uniform(sets.size())];
      ExpectKernelEquivalence(a, b, std::string(restaurant ? "restaurant" : "product") +
                                        " trial " + std::to_string(trial));
    }
  }
}

TEST(SetSimilarityTest, JaccardEdgeCases) {
  EXPECT_EQ(Jaccard(Set({}), Set({})), 1.0);
  EXPECT_EQ(Jaccard(Set({1}), Set({})), 0.0);
  EXPECT_EQ(Jaccard(Set({1, 2}), Set({1, 2})), 1.0);
}

TEST(SetSimilarityTest, MinCompatibleSizeJaccard) {
  // |b| >= t|a|: with |a|=10, t=0.5 -> 5.
  EXPECT_EQ(MinCompatibleSize(10, 0.5), 5u);
  EXPECT_EQ(MinCompatibleSize(10, 0.0), 0u);
}

TEST(SetSimilarityTest, MinRequiredOverlapJaccard) {
  // o >= t(a+b)/(1+t): a=b=10, t=0.5 -> 20*0.5/1.5 = 6.67 -> 7.
  EXPECT_EQ(MinRequiredOverlap(10, 10, 0.5), 7u);
}

TEST(SetSimilarityTest, FilterBoundsAreSound) {
  // Property: whenever Jaccard(a,b) >= t, |b| >= MinCompatibleSize(|a|) and
  // overlap >= MinRequiredOverlap(|a|, |b|); the score from the overlap is
  // Jaccard's bitwise, and RequiredOverlapExact decides the threshold
  // exactly.
  for (size_t sa = 1; sa <= 8; ++sa) {
    for (size_t sb = 1; sb <= 8; ++sb) {
      for (size_t o = 0; o <= std::min(sa, sb); ++o) {
        TokenSet a;
        TokenSet b;
        for (size_t i = 0; i < sa; ++i) a.push_back(static_cast<text::TokenId>(i));
        for (size_t i = 0; i < o; ++i) b.push_back(static_cast<text::TokenId>(i));
        for (size_t i = 0; i < sb - o; ++i) b.push_back(static_cast<text::TokenId>(100 + i));
        b = MakeTokenSet(b);
        const double sim = Jaccard(a, b);
        EXPECT_EQ(SimilarityFromOverlap(sa, sb, o), sim);
        for (double t : {0.3, 0.5, 0.8}) {
          EXPECT_EQ(o >= RequiredOverlapExact(sa, sb, t), sim >= t);
          if (sim >= t) {
            EXPECT_GE(sb, MinCompatibleSize(sa, t));
            EXPECT_GE(o, MinRequiredOverlap(sa, sb, t));
          }
        }
      }
    }
  }
}

#if defined(__x86_64__) && !defined(CROWDER_DISABLE_SIMD)
// XINUSE bit 2 (XGETBV with ECX = 1): the upper halves of the YMM
// registers may hold non-zero state.
bool UpperYmmInUse() {
  uint32_t lo = 0;
  uint32_t hi = 0;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(1));
  return (lo & 4u) != 0;
}

// The AVX2 kernel must leave the upper YMM state clean on every exit: with
// it dirty, every later SSE instruction in the process pays the AVX-SSE
// transition penalty. A build that reaches a scalar tail or an early exit
// without vzeroupper fails here.
TEST(OverlapSimdTest, Avx2KernelExitsWithCleanUpperYmmState) {
  if (std::string(internal_simd::KernelName()) != "avx2") {
    GTEST_SKIP() << "the AVX2 kernel is not the active one";
  }
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || (ecx & bit_OSXSAVE) == 0 ||
      !__get_cpuid_count(0xD, 1, &eax, &ebx, &ecx, &edx) || (eax & (1u << 2)) == 0) {
    GTEST_SKIP() << "XGETBV with ECX = 1 is unavailable";
  }
  TokenSet evens;
  TokenSet odds;
  for (text::TokenId t = 0; t < 48; t += 2) {
    evens.push_back(t);
    odds.push_back(t + 1);
  }
  struct Case {
    const char* label;
    size_t na, nb, required;
  };
  // Nine elements a side run one 8-lane block, then the scalar tail;
  // required = 20 over disjoint sets passes the first bound check, runs a
  // block, then takes the in-loop early exit.
  for (const Case& c : {Case{"scalar tail", 9, 9, 0}, Case{"early exit", 24, 24, 20}}) {
    __asm__ volatile("vzeroupper");
    if (UpperYmmInUse()) GTEST_SKIP() << "upper YMM state is not clean at baseline";
    const size_t overlap = internal_simd::OverlapAtLeastDispatch(evens.data(), c.na, odds.data(),
                                                                 c.nb, c.required);
    EXPECT_FALSE(UpperYmmInUse()) << c.label;
    EXPECT_EQ(overlap, 0u) << c.label;
  }
}
#endif

TEST(EditDistanceTest, KnownDistances) {
  EXPECT_EQ(Levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(Levenshtein("flaw", "lawn"), 2u);
  EXPECT_EQ(Levenshtein("", "abc"), 3u);
  EXPECT_EQ(Levenshtein("abc", ""), 3u);
  EXPECT_EQ(Levenshtein("same", "same"), 0u);
}

TEST(EditDistanceTest, Symmetry) {
  EXPECT_EQ(Levenshtein("abcdef", "azced"), Levenshtein("azced", "abcdef"));
}

TEST(EditDistanceTest, TriangleInequalityOnSamples) {
  const std::vector<std::string> words{"apple", "apply", "ample", "maple", ""};
  for (const auto& a : words) {
    for (const auto& b : words) {
      for (const auto& c : words) {
        EXPECT_LE(Levenshtein(a, c), Levenshtein(a, b) + Levenshtein(b, c));
      }
    }
  }
}

TEST(EditDistanceTest, BoundedMatchesExactWithinBound) {
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 5), 3u);
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 3), 3u);
}

TEST(EditDistanceTest, BoundedExceedsBoundQuickly) {
  EXPECT_GT(BoundedLevenshtein("aaaaaaaaaa", "bbbbbbbbbb", 3), 3u);
  // Length-difference shortcut.
  EXPECT_GT(BoundedLevenshtein("abc", "abcdefgh", 2), 2u);
}

TEST(EditDistanceTest, EditSimilarityRange) {
  EXPECT_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_EQ(EditSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(EditSimilarity("kitten", "sitting"), 1.0 - 3.0 / 7.0, 1e-9);
}

}  // namespace
}  // namespace similarity
}  // namespace crowder

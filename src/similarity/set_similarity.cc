#include "similarity/set_similarity.h"

#include <algorithm>
#include <cmath>

#include "similarity/overlap_simd.h"

namespace crowder {
namespace similarity {

TokenSet MakeTokenSet(std::vector<text::TokenId> tokens) {
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

size_t OverlapSizeLinear(TokenSpan a, TokenSpan b) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

namespace {

// First index in [begin, v.size()) with v[idx] >= target: exponential probe
// from `begin` to bracket the target, then binary search inside the bracket.
// O(log distance) rather than O(log |v|), so a run of nearby probes stays
// cheap.
size_t GallopLowerBound(TokenSpan v, size_t begin, text::TokenId target) {
  size_t step = 1;
  size_t hi = begin;
  while (hi < v.size() && v[hi] < target) {
    begin = hi + 1;
    hi += step;
    step *= 2;
  }
  hi = std::min(hi, v.size());
  return static_cast<size_t>(std::lower_bound(v.begin() + begin, v.begin() + hi, target) -
                             v.begin());
}

// Size ratio at which OverlapSize abandons the SIMD block merge for the
// galloping probe. Crossover measured by bench_machine's ratio sweep
// (BENCH_machine.json "galloping_crossover", |small| = 32 against the AVX2
// merge): simd wins decisively through 8x, the two are within noise at 16x,
// and galloping wins from 24x up (2x faster by 32x, 7x by 256x). 16 is the
// first measured ratio where galloping is ahead, and it matches the
// seed's scalar-merge crossover — the AVX2 merge gains on the merge side
// roughly what cache-friendlier probes gain on the gallop side.
constexpr size_t kGallopDispatchRatio = 16;

}  // namespace

size_t OverlapSizeGalloping(TokenSpan a, TokenSpan b) {
  // Walk the smaller set, galloping through the larger one.
  const TokenSpan small = a.size() <= b.size() ? a : b;
  const TokenSpan large = a.size() <= b.size() ? b : a;
  size_t count = 0;
  size_t pos = 0;
  for (text::TokenId tok : small) {
    pos = GallopLowerBound(large, pos, tok);
    if (pos == large.size()) break;
    if (large[pos] == tok) {
      ++count;
      ++pos;
    }
  }
  return count;
}

size_t OverlapSize(TokenSpan a, TokenSpan b) {
  const size_t small = std::min(a.size(), b.size());
  const size_t large = std::max(a.size(), b.size());
  if (small > 0 && large / small >= kGallopDispatchRatio) return OverlapSizeGalloping(a, b);
  return OverlapSizeSimd(a, b);
}

size_t OverlapSizeAtLeast(TokenSpan a, TokenSpan b, size_t required) {
  const size_t small = std::min(a.size(), b.size());
  const size_t large = std::max(a.size(), b.size());
  // An unreachable bound (required > min size) can't produce a qualifying
  // overlap; say so without touching the data. Returning `small` satisfies
  // the contract: it is < required and equals the largest possible overlap.
  if (required > small) return small;
  if (small > 0 && large / small >= kGallopDispatchRatio) {
    // Galloping is already o(|a|+|b|) and the probe positions don't line up
    // with remaining-element bounds; run it to completion (exact count
    // satisfies the contract unconditionally).
    return OverlapSizeGalloping(a, b);
  }
  return internal_simd::OverlapAtLeastDispatch(a.data(), a.size(), b.data(), b.size(), required);
}

size_t OverlapSizeSimd(TokenSpan a, TokenSpan b) {
  return internal_simd::OverlapDispatch(a.data(), a.size(), b.data(), b.size());
}

const char* OverlapSimdKernelName() { return internal_simd::KernelName(); }

double Jaccard(TokenSpan a, TokenSpan b) {
  if (a.empty() && b.empty()) return 1.0;
  const size_t inter = OverlapSize(a, b);
  const size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

double SimilarityFromOverlap(size_t size_a, size_t size_b, size_t overlap) {
  // Replays Jaccard's double operations exactly (same guards, same order),
  // so scoring from a known overlap is bitwise Jaccard's own result.
  if (size_a == 0 && size_b == 0) return 1.0;
  const size_t uni = size_a + size_b - overlap;
  return uni == 0 ? 0.0 : static_cast<double>(overlap) / static_cast<double>(uni);
}

size_t MinCompatibleSize(size_t size, double threshold) {
  if (threshold <= 0.0) return 0;
  // |b| >= t * |a|
  const double lower = threshold * static_cast<double>(size);
  return static_cast<size_t>(std::ceil(lower - 1e-9));
}

size_t MinRequiredOverlap(size_t sa, size_t sb, double threshold) {
  const double a = static_cast<double>(sa);
  const double b = static_cast<double>(sb);
  // o / (a + b - o) >= t  =>  o >= t(a+b) / (1+t)
  const double need = threshold * (a + b) / (1.0 + threshold);
  return static_cast<size_t>(std::ceil(need - 1e-9));
}

size_t RequiredOverlapExact(size_t sa, size_t sb, double threshold) {
  const size_t cap = std::min(sa, sb);
  // Closed-form start, then ±1 fixup against the actual double formula. The
  // score is monotone non-decreasing in the overlap (a non-decreasing
  // numerator over a non-increasing positive denominator, and double
  // division is monotone), so each loop runs at most a step or two — the
  // closed form is off by at most rounding.
  size_t o = std::min(cap, MinRequiredOverlap(sa, sb, threshold));
  while (o > 0 && SimilarityFromOverlap(sa, sb, o - 1) >= threshold) --o;
  while (o <= cap && SimilarityFromOverlap(sa, sb, o) < threshold) ++o;
  return o;  // cap + 1 when even a full overlap scores below the threshold
}

}  // namespace similarity
}  // namespace crowder

// Jaccard similarity over interned token sets: the "machine-based
// technique" of CrowdER §2.1.1 and the likelihood function of its machine
// pass (§7.1). Jaccard is the one measure; the prefix-filter bounds below
// are its bounds.
//
// Intersection kernels (the join's hot path) come in three shapes:
//   * OverlapSizeLinear   — scalar merge, O(|a|+|b|); the reference every
//                           other kernel is property-tested against.
//   * OverlapSizeGalloping— O(|small| log |large|); wins on skewed sizes.
//   * OverlapSizeSimd     — vectorized block merge (AVX2, SSE2, or the scalar
//                           merge, chosen once at startup); wins on
//                           comparable sizes.
// OverlapSize dispatches between galloping and SIMD on the size ratio, and
// OverlapSizeAtLeast adds threshold-aware early exit for the verify step.
// Every kernel returns the exact |a ∩ b| (AtLeast: exact whenever it matters
// — see its contract), so which kernel ran is unobservable in any result.
#ifndef CROWDER_SIMILARITY_SET_SIMILARITY_H_
#define CROWDER_SIMILARITY_SET_SIMILARITY_H_

#include <cstddef>
#include <vector>

#include "text/vocabulary.h"

namespace crowder {
namespace similarity {

/// A token set: sorted, deduplicated token ids.
using TokenSet = std::vector<text::TokenId>;

/// \brief A non-owning view of a sorted, deduplicated token sequence — the
/// currency of the intersection kernels, so they run equally over owned
/// TokenSets and over slices of a flat token arena (internal::JoinPlan,
/// serve::IncrementalIndex). Implicitly constructible from a TokenSet, so
/// every TokenSet call site keeps compiling unchanged.
class TokenSpan {
 public:
  constexpr TokenSpan() = default;
  constexpr TokenSpan(const text::TokenId* data, size_t size) : data_(data), size_(size) {}
  /// Implicit view of a whole TokenSet (valid while the set is alive).
  TokenSpan(const TokenSet& set) : data_(set.data()), size_(set.size()) {}  // NOLINT

  constexpr const text::TokenId* data() const { return data_; }
  constexpr size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr text::TokenId operator[](size_t i) const { return data_[i]; }
  constexpr const text::TokenId* begin() const { return data_; }
  constexpr const text::TokenId* end() const { return data_ + size_; }

 private:
  const text::TokenId* data_ = nullptr;
  size_t size_ = 0;
};

/// \brief Returns a canonical TokenSet (sorts + dedups a token sequence).
TokenSet MakeTokenSet(std::vector<text::TokenId> tokens);

/// \brief |a ∩ b| for sorted sets. Dispatches between the galloping probe
/// (skewed sizes) and the SIMD block merge (comparable sizes); every path
/// returns the same count.
size_t OverlapSize(TokenSpan a, TokenSpan b);

/// \brief Linear merge intersection count — O(|a| + |b|). The portable
/// reference kernel: every other intersection kernel is property-tested
/// against it (and bench_machine's divergence check exits nonzero on any
/// disagreement). Exposed for benches and tests; prefer OverlapSize.
size_t OverlapSizeLinear(TokenSpan a, TokenSpan b);

/// \brief Galloping (exponential + binary probe) intersection count —
/// O(|small| log |large|). Wins when one set is much larger than the other,
/// the common case a prefix-filtering join produces on skewed token-set
/// sizes. Exposed for benches and the equivalence property test; prefer
/// OverlapSize.
size_t OverlapSizeGalloping(TokenSpan a, TokenSpan b);

/// \brief Vectorized block-merge intersection count. Resolved once at
/// startup to the widest kernel the CPU supports: AVX2 (8-lane
/// shuffle/compare), SSE2 (4-lane), or the scalar linear merge on non-x86
/// hardware and under -DCROWDER_DISABLE_SIMD=ON. Exact on every input —
/// the kernels differ only in speed.
size_t OverlapSizeSimd(TokenSpan a, TokenSpan b);

/// \brief Which kernel OverlapSizeSimd resolved to: "avx2", "sse2", or
/// "scalar" (observability for benches and BENCH_machine.json).
const char* OverlapSimdKernelName();

/// \brief Threshold-aware intersection: counts |a ∩ b| but may abandon the
/// scan once the remaining elements cannot lift the count to `required`.
///
/// Contract: when |a ∩ b| >= required the exact overlap is returned;
/// otherwise SOME value < required is returned (how far the scan got).
/// Callers therefore learn exactly "overlap >= required, and if so its exact
/// value" — which, with `required = RequiredOverlapExact(...)`, is exactly
/// what the verify step needs, while unpromising pairs exit after a few
/// blocks instead of a full merge. `required = 0` always returns the exact
/// overlap. Skewed sizes dispatch to the galloping kernel (which is already
/// o(|a|+|b|) and returns the exact count unconditionally).
size_t OverlapSizeAtLeast(TokenSpan a, TokenSpan b, size_t required);

/// \brief Jaccard similarity |a∩b| / |a∪b|; 1.0 when both sets are empty.
double Jaccard(TokenSpan a, TokenSpan b);

/// \brief The machine pass's set measure. Jaccard is the only one; the enum
/// remains because HybridWorkflow::MachinePass and MachinePassSharded still
/// take it (the repository benchmark names it), and goes at the benchmark's
/// next change.
enum class SetMeasure { kJaccard };

/// \brief The Jaccard score as a function of the set sizes and the exact
/// overlap — bitwise the value Jaccard computes (same double operations in
/// the same order), so a caller that already knows |a ∩ b| (e.g. from
/// OverlapSizeAtLeast) can score without re-intersecting.
double SimilarityFromOverlap(size_t size_a, size_t size_b, size_t overlap);

/// \brief For prefix filtering: the minimum size |b| may have so that
/// Jaccard(a, b) >= threshold can still hold, given |a| = size.
size_t MinCompatibleSize(size_t size, double threshold);

/// \brief For prefix filtering: minimum required overlap between sets of
/// sizes `sa` and `sb` for Jaccard >= threshold. Closed-form; a sound lower
/// bound, but not guaranteed tight against the double arithmetic of the
/// score itself — use RequiredOverlapExact when exactness matters.
size_t MinRequiredOverlap(size_t sa, size_t sb, double threshold);

/// \brief The exact integer threshold on the overlap: the minimal o such
/// that SimilarityFromOverlap(sa, sb, o) >= threshold, or min(sa, sb) + 1
/// when no achievable overlap reaches the threshold. Starts from the
/// closed-form MinRequiredOverlap and fixes it up (±1 steps) against the
/// actual double formula — the score is monotone in the overlap, so the
/// minimal qualifying o is well-defined and
///   overlap >= RequiredOverlapExact(...)  ⟺  Jaccard(overlap) >= threshold
/// holds EXACTLY, in the join's own floating-point arithmetic. This is what
/// lets the verify step cut intersections short (OverlapSizeAtLeast) while
/// emitting bitwise the same pair set as a full intersect-then-compare.
size_t RequiredOverlapExact(size_t sa, size_t sb, double threshold);

}  // namespace similarity
}  // namespace crowder

#endif  // CROWDER_SIMILARITY_SET_SIMILARITY_H_

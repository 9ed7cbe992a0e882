// The vectorized set-intersection kernels behind OverlapSizeSimd /
// OverlapSizeAtLeast (see overlap_simd.h for the dispatch contract).
//
// Shape of the vector kernels (the standard shuffle/compare block merge):
// load one block from each side (8 lanes under AVX2, 4 under SSE2), compare
// the a-block against every rotation of the b-block, OR the equality masks,
// and popcount the lane mask — each a-lane matches at most one b element
// because token sets are strictly increasing, so the popcount is exactly the
// number of a-lanes present in the b-block. Then advance whichever block has
// the smaller maximum (both on a tie): every discarded element has, at that
// point, been compared against every element of the other side it could
// possibly equal, and no element is ever counted twice because each side's
// values are distinct and each a-lane is consumed with its block. Remainders
// fall through to the scalar merge.
//
// The early exit: exact_overlap <= count + min(remaining_a, remaining_b)
// always holds, so once that bound drops below `required` no qualifying
// overlap is reachable and the kernel returns the running count (< required,
// as the OverlapSizeAtLeast contract asks). The bound is checked once per
// block step — a two-instruction tax on the plain intersection (callers pass
// required = 0, which never triggers).
#include "similarity/overlap_simd.h"

#include <algorithm>

#if defined(__x86_64__) || defined(__amd64__)
#define CROWDER_OVERLAP_X86 1
#include <immintrin.h>
#endif

namespace crowder {
namespace similarity {
namespace internal_simd {
namespace {

using text::TokenId;

// Portable reference kernel (and the tail pass of the vector kernels).
size_t OverlapAtLeastScalar(const TokenId* a, size_t na, const TokenId* b, size_t nb,
                            size_t required) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i < na && j < nb) {
    if (count + std::min(na - i, nb - j) < required) return count;
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

#if defined(CROWDER_OVERLAP_X86) && !defined(CROWDER_DISABLE_SIMD)

// SSE2 is x86-64 baseline — no target attribute needed.
size_t OverlapAtLeastSse2(const TokenId* a, size_t na, const TokenId* b, size_t nb,
                          size_t required) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    if (count + std::min(na - i, nb - j) < required) return count;
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    __m128i eq = _mm_cmpeq_epi32(va, vb);
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1))));
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2))));
    eq = _mm_or_si128(eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3))));
    count += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(eq)))));
    const TokenId amax = a[i + 3];
    const TokenId bmax = b[j + 3];
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
  }
  return count + OverlapAtLeastScalar(a + i, na - i, b + j, nb - j,
                                      required > count ? required - count : 0);
}

__attribute__((target("avx2"))) size_t OverlapAtLeastAvx2(const TokenId* a, size_t na,
                                                          const TokenId* b, size_t nb,
                                                          size_t required) {
  size_t i = 0;
  size_t j = 0;
  size_t count = 0;
  // Cross-lane rotate-by-one; applying it repeatedly walks all 8 rotations.
  const __m256i rotate1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  while (i + 8 <= na && j + 8 <= nb) {
    if (count + std::min(na - i, nb - j) < required) {
      _mm256_zeroupper();
      return count;
    }
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i rot = vb;
    __m256i eq = _mm256_cmpeq_epi32(va, vb);
    for (int r = 1; r < 8; ++r) {
      rot = _mm256_permutevar8x32_epi32(rot, rotate1);
      eq = _mm256_or_si256(eq, _mm256_cmpeq_epi32(va, rot));
    }
    count += static_cast<size_t>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)))));
    const TokenId amax = a[i + 7];
    const TokenId bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  // Both exits clear the upper YMM state explicitly: GCC 12 at -O2 emits
  // no vzeroupper on the path through the scalar tail below, and dirty
  // upper state makes every later SSE instruction in the process pay the
  // AVX-SSE transition penalty (Dawid-Skene EM after the join ran about
  // eight times slower).
  _mm256_zeroupper();
  return count + OverlapAtLeastScalar(a + i, na - i, b + j, nb - j,
                                      required > count ? required - count : 0);
}

#endif  // x86 && !CROWDER_DISABLE_SIMD

using KernelFn = size_t (*)(const TokenId*, size_t, const TokenId*, size_t, size_t);

struct Kernel {
  KernelFn fn;
  const char* name;
};

Kernel ResolveKernel() {
#if defined(CROWDER_OVERLAP_X86) && !defined(CROWDER_DISABLE_SIMD)
  if (__builtin_cpu_supports("avx2")) return {&OverlapAtLeastAvx2, "avx2"};
  return {&OverlapAtLeastSse2, "sse2"};
#else
  return {&OverlapAtLeastScalar, "scalar"};
#endif
}

const Kernel& ActiveKernel() {
  static const Kernel kernel = ResolveKernel();
  return kernel;
}

}  // namespace

size_t OverlapDispatch(const TokenId* a, size_t na, const TokenId* b, size_t nb) {
  return ActiveKernel().fn(a, na, b, nb, 0);
}

size_t OverlapAtLeastDispatch(const TokenId* a, size_t na, const TokenId* b, size_t nb,
                              size_t required) {
  return ActiveKernel().fn(a, na, b, nb, required);
}

const char* KernelName() { return ActiveKernel().name; }

}  // namespace internal_simd
}  // namespace similarity
}  // namespace crowder

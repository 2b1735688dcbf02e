#include "simd/kernels_internal.h"

#if SHADOOP_SIMD_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

// Each kernel carries the per-function target attribute instead of the
// whole library being built with -mavx2: the TU stays linkable into a
// binary that never executes AVX2 (dispatch checks the CPU first).
#define SHADOOP_AVX2_FN __attribute__((target("avx2")))

namespace shadoop::simd::detail {
namespace {

// Exactness notes. _CMP_LE_OQ / _CMP_GE_OQ are the vector twins of the
// scalar <= / >= (ordered, false on NaN), so the bitmap kernels decide
// every lane exactly as the scalar reference. BoxMinDistance uses
// explicit mul/add/sqrt intrinsics — no FMA contraction — and VSQRTPD is
// IEEE-754 correctly rounded, matching std::sqrt bit-for-bit.

SHADOOP_AVX2_FN size_t IntersectBoxBitmapAvx2(const BoxLanes& boxes,
                                              size_t n, double q_min_x,
                                              double q_min_y, double q_max_x,
                                              double q_max_y,
                                              uint64_t* out_bits) {
  std::memset(out_bits, 0, BitmapWords(n) * sizeof(uint64_t));
  const __m256d v_q_min_x = _mm256_set1_pd(q_min_x);
  const __m256d v_q_min_y = _mm256_set1_pd(q_min_y);
  const __m256d v_q_max_x = _mm256_set1_pd(q_max_x);
  const __m256d v_q_max_y = _mm256_set1_pd(q_max_y);
  size_t hits = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d b_min_x = _mm256_loadu_pd(boxes.min_x + i);
    const __m256d b_min_y = _mm256_loadu_pd(boxes.min_y + i);
    const __m256d b_max_x = _mm256_loadu_pd(boxes.max_x + i);
    const __m256d b_max_y = _mm256_loadu_pd(boxes.max_y + i);
    const __m256d hit_x =
        _mm256_and_pd(_mm256_cmp_pd(v_q_min_x, b_max_x, _CMP_LE_OQ),
                      _mm256_cmp_pd(b_min_x, v_q_max_x, _CMP_LE_OQ));
    const __m256d hit_y =
        _mm256_and_pd(_mm256_cmp_pd(v_q_min_y, b_max_y, _CMP_LE_OQ),
                      _mm256_cmp_pd(b_min_y, v_q_max_y, _CMP_LE_OQ));
    const unsigned mask = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_and_pd(hit_x, hit_y)));
    // i is a multiple of 4, so the 4-bit group never straddles a word.
    out_bits[i >> 6] |= static_cast<uint64_t>(mask) << (i & 63);
    hits += static_cast<size_t>(std::popcount(mask));
  }
  for (; i < n; ++i) {
    const bool hit = q_min_x <= boxes.max_x[i] && boxes.min_x[i] <= q_max_x &&
                     q_min_y <= boxes.max_y[i] && boxes.min_y[i] <= q_max_y;
    if (hit) {
      out_bits[i >> 6] |= uint64_t{1} << (i & 63);
      ++hits;
    }
  }
  return hits;
}

SHADOOP_AVX2_FN void BoxMinDistanceAvx2(const BoxLanes& boxes, size_t n,
                                        double px, double py, double* out) {
  const __m256d v_px = _mm256_set1_pd(px);
  const __m256d v_py = _mm256_set1_pd(py);
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d dx = _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(_mm256_loadu_pd(boxes.min_x + i), v_px),
                      zero),
        _mm256_sub_pd(v_px, _mm256_loadu_pd(boxes.max_x + i)));
    const __m256d dy = _mm256_max_pd(
        _mm256_max_pd(_mm256_sub_pd(_mm256_loadu_pd(boxes.min_y + i), v_py),
                      zero),
        _mm256_sub_pd(v_py, _mm256_loadu_pd(boxes.max_y + i)));
    const __m256d dist = _mm256_sqrt_pd(
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));
    _mm256_storeu_pd(out + i, dist);
  }
  for (; i < n; ++i) {
    const double dx = std::max({boxes.min_x[i] - px, 0.0, px - boxes.max_x[i]});
    const double dy = std::max({boxes.min_y[i] - py, 0.0, py - boxes.max_y[i]});
    out[i] = std::sqrt(dx * dx + dy * dy);
  }
}

SHADOOP_AVX2_FN size_t PrefixCountLessEqualAvx2(const double* values,
                                               size_t n, double limit) {
  const __m256d v_limit = _mm256_set1_pd(limit);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const unsigned mask = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(values + i), v_limit, _CMP_LE_OQ)));
    if (mask != 0xF) {
      return i + static_cast<size_t>(std::countr_one(mask));
    }
  }
  while (i < n && values[i] <= limit) ++i;
  return i;
}

const KernelTable kAvx2Table = {
    &IntersectBoxBitmapAvx2,
    &BoxMinDistanceAvx2,
    &PrefixCountLessEqualAvx2,
};

}  // namespace

const KernelTable* Avx2TableOrNull() { return &kAvx2Table; }

}  // namespace shadoop::simd::detail

#else  // !SHADOOP_SIMD_HAVE_AVX2

namespace shadoop::simd::detail {

const KernelTable* Avx2TableOrNull() { return nullptr; }

}  // namespace shadoop::simd::detail

#endif  // SHADOOP_SIMD_HAVE_AVX2

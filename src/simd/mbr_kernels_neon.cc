#include "simd/kernels_internal.h"

#if SHADOOP_SIMD_HAVE_NEON

#include <arm_neon.h>

#include <cstring>

namespace shadoop::simd::detail {
namespace {

// NEON implements the comparison kernels (exact by construction: vector
// <= / >= decide lanes exactly like the scalar operators). The distance
// kernel stays on the scalar reference: on aarch64 the compiler may
// contract mul+add into FMA differently per TU, and bit-parity with
// Envelope::MinDistance matters more than the last 2x on that kernel.

inline unsigned Mask2(uint64x2_t bits) {
  return static_cast<unsigned>(vgetq_lane_u64(bits, 0) & 1) |
         (static_cast<unsigned>(vgetq_lane_u64(bits, 1) & 1) << 1);
}

size_t IntersectBoxBitmapNeon(const BoxLanes& boxes, size_t n,
                              double q_min_x, double q_min_y, double q_max_x,
                              double q_max_y, uint64_t* out_bits) {
  std::memset(out_bits, 0, BitmapWords(n) * sizeof(uint64_t));
  const float64x2_t v_q_min_x = vdupq_n_f64(q_min_x);
  const float64x2_t v_q_min_y = vdupq_n_f64(q_min_y);
  const float64x2_t v_q_max_x = vdupq_n_f64(q_max_x);
  const float64x2_t v_q_max_y = vdupq_n_f64(q_max_y);
  size_t hits = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t hit = vandq_u64(
        vandq_u64(vcleq_f64(v_q_min_x, vld1q_f64(boxes.max_x + i)),
                  vcleq_f64(vld1q_f64(boxes.min_x + i), v_q_max_x)),
        vandq_u64(vcleq_f64(v_q_min_y, vld1q_f64(boxes.max_y + i)),
                  vcleq_f64(vld1q_f64(boxes.min_y + i), v_q_max_y)));
    const unsigned mask = Mask2(hit);
    out_bits[i >> 6] |= static_cast<uint64_t>(mask) << (i & 63);
    hits += (mask & 1) + (mask >> 1);
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

size_t PrefixCountLessEqualNeon(const double* values, size_t n,
                                double limit) {
  const float64x2_t v_limit = vdupq_n_f64(limit);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const unsigned mask = Mask2(vcleq_f64(vld1q_f64(values + i), v_limit));
    if (mask != 0x3) return i + (mask & 1);
  }
  while (i < n && values[i] <= limit) ++i;
  return i;
}

}  // namespace

const KernelTable* NeonTableOrNull() {
  static const KernelTable table = {
      &IntersectBoxBitmapNeon,
      kScalarTable.box_min_distance,
      kScalarTable.prefix_count_less_equal,
  };
  return &table;
}

}  // namespace shadoop::simd::detail

#else  // !SHADOOP_SIMD_HAVE_NEON

namespace shadoop::simd::detail {

const KernelTable* NeonTableOrNull() { return nullptr; }

}  // namespace shadoop::simd::detail

#endif  // SHADOOP_SIMD_HAVE_NEON

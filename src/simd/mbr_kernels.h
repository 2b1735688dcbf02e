#ifndef SHADOOP_SIMD_MBR_KERNELS_H_
#define SHADOOP_SIMD_MBR_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "simd/dispatch.h"

namespace shadoop::simd {

/// Structure-of-arrays view over a column of axis-aligned boxes. The
/// canonical empty box is (+inf, +inf, -inf, -inf); kernels treat it as
/// never matching, which falls out of the closed comparisons — no branch
/// needed. Inputs must be NaN-free (record parsers reject NaN upstream).
struct BoxLanes {
  const double* min_x = nullptr;
  const double* min_y = nullptr;
  const double* max_x = nullptr;
  const double* max_y = nullptr;
};

/// Number of uint64 words a hit bitmap over `n` elements needs.
constexpr size_t BitmapWords(size_t n) { return (n + 63) / 64; }

/// Batch MBR intersection: sets bit i of `out_bits` iff box i intersects
/// the closed query box [q_min_x, q_max_x] x [q_min_y, q_max_y] — the
/// same predicate as Envelope::Intersects (touching boundaries hit,
/// empty boxes and empty queries never hit). The first BitmapWords(n)
/// words of `out_bits` are fully overwritten. Returns the hit count.
size_t IntersectBoxBitmap(const BoxLanes& boxes, size_t n, double q_min_x,
                          double q_min_y, double q_max_x, double q_max_y,
                          uint64_t* out_bits);

/// Batch box-to-point distance: out[i] = Envelope::MinDistance for box i
/// to (px, py), bit-identical to the scalar formula (sqrt of the clamped
/// axis gaps; empty boxes yield +inf).
void BoxMinDistance(const BoxLanes& boxes, size_t n, double px, double py,
                    double* out);

/// Length of the leading run of `values` (ascending) with value <= limit.
/// Exactly the plane-sweep inner-loop advance: the scan stops at the
/// first element greater than `limit`. Works on any array, but only a
/// sorted one makes the result a prefix of the candidates.
size_t PrefixCountLessEqual(const double* values, size_t n, double limit);

/// Per-target entry points, exposed so parity tests can pin every
/// compiled target against kScalar on the same inputs. The unsuffixed
/// functions above dispatch to ActiveTarget().
namespace detail {
struct KernelTable;
}

/// Snapshot of the active target's kernel table, for hot loops that make
/// many small batch calls and want to skip the per-call dispatch load.
/// The snapshot stays valid for the process lifetime; a concurrent
/// SetActiveTarget only affects tables fetched afterwards.
const detail::KernelTable& ActiveKernels();

namespace detail {

struct KernelTable {
  size_t (*intersect_box_bitmap)(const BoxLanes&, size_t, double, double,
                                 double, double, uint64_t*) = nullptr;
  void (*box_min_distance)(const BoxLanes&, size_t, double, double,
                           double*) = nullptr;
  size_t (*prefix_count_less_equal)(const double*, size_t,
                                    double) = nullptr;
};

/// Table for a compiled-in target; nullptr members when `target` is not
/// compiled into this binary.
const KernelTable& TableFor(Target target);

}  // namespace detail

}  // namespace shadoop::simd

#endif  // SHADOOP_SIMD_MBR_KERNELS_H_

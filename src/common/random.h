#ifndef SHADOOP_COMMON_RANDOM_H_
#define SHADOOP_COMMON_RANDOM_H_

#include <cstdint>

namespace shadoop {

/// Deterministic, seedable pseudo-random generator (xoshiro256**).
/// Every randomized component of the library (workload generators,
/// sampling, tie-breaking) draws from an explicitly seeded Random so that
/// experiments and property tests are reproducible bit-for-bit across
/// platforms — std::mt19937 distributions are not portable, so we
/// implement the distributions ourselves.
class Random {
 public:
  explicit Random(uint64_t seed = 0x5110794u);

  /// Uniform over the full 64-bit range.
  uint64_t NextUint64();

  /// Uniform in [0, bound). bound must be > 0.
  uint64_t NextUint64(uint64_t bound);

  /// Uniform in [0, bound). bound must be > 0.
  uint32_t NextUint32(uint32_t bound);

  /// Uniform in [0, 1).
  double NextDouble();

  /// Uniform in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Standard normal via Box–Muller.
  double NextGaussian();

  /// Bernoulli with probability p of returning true.
  bool NextBool(double p = 0.5);

 private:
  uint64_t state_[4];
  bool have_spare_gaussian_ = false;
  double spare_gaussian_ = 0.0;
};

}  // namespace shadoop

#endif  // SHADOOP_COMMON_RANDOM_H_

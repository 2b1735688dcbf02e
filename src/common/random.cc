#include "common/random.h"

#include <cmath>

namespace shadoop {
namespace {

uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Random::Random(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(sm);
}

uint64_t Random::NextUint64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Random::NextUint64(uint64_t bound) {
  // Debiased modulo via rejection sampling on the top of the range.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

uint32_t Random::NextUint32(uint32_t bound) {
  return static_cast<uint32_t>(NextUint64(bound));
}

double Random::NextDouble() {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Random::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Random::NextGaussian() {
  if (have_spare_gaussian_) {
    have_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  have_spare_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

bool Random::NextBool(double p) { return NextDouble() < p; }

}  // namespace shadoop

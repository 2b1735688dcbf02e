#ifndef SHADOOP_SIMD_DISPATCH_H_
#define SHADOOP_SIMD_DISPATCH_H_

namespace shadoop::simd {

/// Exists only for perfbench, whose report header prints the filter
/// target. The MBR filters are plain loops over Envelopes (DESIGN.md
/// §13), so the one target is scalar.
enum class Target { kScalar };

inline const char* TargetName(Target) { return "scalar"; }

inline Target ActiveTarget() { return Target::kScalar; }

}  // namespace shadoop::simd

#endif  // SHADOOP_SIMD_DISPATCH_H_

#include "fault/fault_injector.h"

namespace shadoop::fault {
namespace {

/// Decision streams keep the independent fault sources decorrelated even
/// when their other key components collide.
enum Stream : uint64_t {
  kAttemptFailure = 1,
  kStraggler = 2,
  kReplicaRead = 3,
};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t HashString(std::string_view s) {
  uint64_t hash = 14695981039346656037ULL;  // FNV-1a.
  for (char c : s) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace

double FaultInjector::UnitDraw(uint64_t stream, uint64_t a, uint64_t b,
                               uint64_t c) const {
  // Each component is pre-multiplied by a large odd constant: small
  // integers (task ids, attempt numbers) then differ in *high* bits, so a
  // single SplitMix64 round avalanches fully. Without this, xor-ing raw
  // low-bit deltas leaves occasional narrow output bands — one unlucky
  // task would fail every attempt no matter the retry budget.
  uint64_t h = SplitMix64(policy_.seed ^ (stream * 0xd6e8feb86659fd93ULL));
  h = SplitMix64(h ^ (a * 0x9e3779b97f4a7c15ULL));
  h = SplitMix64(h ^ (b * 0xc2b2ae3d27d4eb4fULL));
  h = SplitMix64(h ^ (c * 0x165667b19e3779f9ULL));
  // 53 high bits -> [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool FaultInjector::ShouldFailAttempt(TaskKind kind, std::string_view job,
                                      size_t task, int attempt) const {
  const double prob = kind == TaskKind::kMap ? policy_.map_failure_prob
                                             : policy_.reduce_failure_prob;
  if (prob <= 0) return false;
  const uint64_t key = HashString(job) ^ static_cast<uint64_t>(kind);
  return UnitDraw(kAttemptFailure, key, task, static_cast<uint64_t>(attempt)) <
         prob;
}

double FaultInjector::StragglerDelayMs(TaskKind kind, std::string_view job,
                                       size_t task, int attempt) const {
  if (policy_.straggler_prob <= 0) return 0.0;
  const uint64_t key = HashString(job) ^ static_cast<uint64_t>(kind);
  if (UnitDraw(kStraggler, key, task, static_cast<uint64_t>(attempt)) >=
      policy_.straggler_prob) {
    return 0.0;
  }
  return policy_.straggler_delay_ms;
}

bool FaultInjector::FailsReplicaRead(uint64_t block_id,
                                     int replica_node) const {
  // Both modes make the reader fail over, so one draw against their summed
  // probability decides: the faulted set only grows as either one rises.
  const double prob =
      policy_.read_corruption_prob + policy_.read_io_error_prob;
  if (prob <= 0) return false;
  return UnitDraw(kReplicaRead, block_id, static_cast<uint64_t>(replica_node),
                  0) < prob;
}

}  // namespace shadoop::fault

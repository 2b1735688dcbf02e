#ifndef SHADOOP_FAULT_FAULT_INJECTOR_H_
#define SHADOOP_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <string_view>

namespace shadoop::fault {

/// Which phase a task belongs to; part of every task-level decision key so
/// map and reduce faults are independent streams.
enum class TaskKind { kMap = 0, kReduce = 1 };

/// Declarative description of the faults to inject into a run. A
/// default-constructed policy injects nothing; the runtime treats a null
/// FaultInjector and an all-zero policy identically (zero overhead,
/// byte-identical behavior).
///
/// All probabilities are evaluated with *deterministic* draws keyed by
/// (seed, decision identifiers) — see FaultInjector — so a given policy
/// produces the same fault pattern on every run, on every machine,
/// regardless of thread scheduling. Raising a probability strictly grows
/// the set of injected faults (the draw is compared against the
/// threshold), which is what makes fault-matrix sweeps monotone.
struct FaultPolicy {
  uint64_t seed = 0;

  // -- Task-level faults (consumed by mapreduce::TaskScheduler) --------

  /// Probability that a given map/reduce task *attempt* fails at launch.
  double map_failure_prob = 0.0;
  double reduce_failure_prob = 0.0;

  /// Probability that an attempt runs on a "slow node" and becomes a
  /// straggler; when it fires, the attempt is delayed by
  /// `straggler_delay_ms` of simulated time (triggering speculative
  /// execution when the delay exceeds the cluster's slack).
  double straggler_prob = 0.0;
  double straggler_delay_ms = 30000.0;

  // -- Block-read faults (consumed by hdfs::FileSystem) ----------------

  /// Per-replica-read probability that the read errors out (dead disk) or
  /// returns corrupt bytes (detected via the stored block checksum). Both
  /// make the client fail over to the next replica; the last reachable
  /// replica is always allowed to succeed, so injected read faults degrade
  /// to failovers, never to data loss.
  double read_io_error_prob = 0.0;
  double read_corruption_prob = 0.0;

  bool AnyTaskFaults() const {
    return map_failure_prob > 0 || reduce_failure_prob > 0 ||
           straggler_prob > 0;
  }
  bool AnyReadFaults() const {
    return read_io_error_prob > 0 || read_corruption_prob > 0;
  }
};

/// Deterministic, thread-safe fault source. Every decision is a pure
/// function of the policy seed and the decision's identity (job name,
/// task, attempt, block, replica): the injector holds no mutable state,
/// so concurrent queries from worker threads cannot reorder the fault
/// pattern. The replicas a read skips are counted by its caller
/// (hdfs::FileSystem::ReadBlockRaw).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPolicy policy) : policy_(policy) {}

  const FaultPolicy& policy() const { return policy_; }

  /// True when the given attempt of a task should fail at launch.
  bool ShouldFailAttempt(TaskKind kind, std::string_view job, size_t task,
                         int attempt) const;

  /// Simulated straggler delay of the attempt; 0 when it is healthy.
  double StragglerDelayMs(TaskKind kind, std::string_view job, size_t task,
                          int attempt) const;

  /// True when reading this replica of the block fails, by an I/O error
  /// or by corrupt bytes; either way the reader fails over.
  bool FailsReplicaRead(uint64_t block_id, int replica_node) const;

 private:
  /// Uniform draw in [0, 1) keyed by (seed, stream, a, b, c).
  double UnitDraw(uint64_t stream, uint64_t a, uint64_t b, uint64_t c) const;

  FaultPolicy policy_;
};

}  // namespace shadoop::fault

#endif  // SHADOOP_FAULT_FAULT_INJECTOR_H_

#ifndef SHADOOP_MAPREDUCE_CLUSTER_H_
#define SHADOOP_MAPREDUCE_CLUSTER_H_

#include <cstdint>
#include <vector>

namespace shadoop::mapreduce {

/// Parameters of the simulated cluster's deterministic cost model. The
/// defaults approximate the Hadoop-era commodity cluster of the paper:
/// 25 nodes, ~100 MB/s disks, shared 1 Gb/s network, multi-second job
/// startup (JVM spin-up, scheduling) and sub-second task startup.
struct ClusterConfig {
  /// Parallel task slots; the makespan model assigns tasks greedily to the
  /// least-loaded slot.
  int num_slots = 25;

  /// Sequential scan rate of one node's disk, bytes per millisecond.
  double disk_bytes_per_ms = 100.0 * 1024;  // 100 MB/s

  /// Aggregate shuffle bandwidth, bytes per millisecond (shared medium:
  /// shuffle time is total shuffled bytes / this).
  double net_bytes_per_ms = 125.0 * 1024;  // 1 Gb/s

  /// Fixed per-job overhead (job setup, scheduling, cleanup).
  double job_startup_ms = 5000.0;

  /// Fixed per-task overhead (task launch).
  double task_startup_ms = 200.0;

  /// CPU throughput used to convert charged operations into time.
  double cpu_ops_per_ms = 1.0e6;

  /// Operations charged automatically for every record that passes
  /// through a map or reduce function (parse + function call).
  double ops_per_record = 2000.0;

  /// Simulated wait before relaunching a failed task attempt; doubles per
  /// consecutive failure of the same task (exponential backoff).
  double retry_backoff_ms = 1000.0;

  /// Speculative execution: when an attempt straggles past
  /// `speculative_slack_ms` of simulated delay, a backup attempt is
  /// launched, and the simulated race between the two decides which one
  /// runs (DESIGN.md §9).
  double speculative_slack_ms = 5000.0;
};

/// Greedy list-scheduling makespan: assigns task costs in order to the
/// least-loaded of `num_slots` machines and returns the maximum load.
/// Deterministic for a deterministic task order.
double Makespan(const std::vector<double>& task_costs_ms, int num_slots);

}  // namespace shadoop::mapreduce

#endif  // SHADOOP_MAPREDUCE_CLUSTER_H_

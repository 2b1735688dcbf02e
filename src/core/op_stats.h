#ifndef SHADOOP_CORE_OP_STATS_H_
#define SHADOOP_CORE_OP_STATS_H_

#include "mapreduce/cluster.h"
#include "mapreduce/job.h"

namespace shadoop::core {

/// Aggregate execution statistics of a spatial operation, which may span
/// several MapReduce jobs (e.g. the iterative kNN). Every operation takes
/// an optional OpStats* out-parameter.
struct OpStats {
  mapreduce::JobCost cost;
  mapreduce::Counters counters;
  int jobs_run = 0;
  double wall_ms = 0;

  void Accumulate(const mapreduce::JobResult& result) {
    cost += result.cost;
    counters.MergeFrom(result.counters);
    ++jobs_run;
    wall_ms += result.wall_ms;
  }
};

/// Deterministic simulated cost of running a task on ONE machine of the
/// cluster: read the bytes from a local disk and spend the CPU. The
/// single-machine baselines of the experiment suite are costed with this
/// so that "traditional algorithm vs CG_Hadoop"-style comparisons use one
/// consistent model.
inline double SingleMachineCostMs(const mapreduce::ClusterConfig& cfg,
                                  uint64_t bytes, uint64_t records,
                                  uint64_t extra_cpu_ops) {
  const double io_ms = static_cast<double>(bytes) / cfg.disk_bytes_per_ms;
  const double cpu_ms = (static_cast<double>(records) * cfg.ops_per_record +
                         static_cast<double>(extra_cpu_ops)) /
                        cfg.cpu_ops_per_ms;
  return io_ms + cpu_ms;
}

}  // namespace shadoop::core

#endif  // SHADOOP_CORE_OP_STATS_H_

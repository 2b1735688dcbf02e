#ifndef SHADOOP_OPTIMIZER_COST_MODEL_H_
#define SHADOOP_OPTIMIZER_COST_MODEL_H_

#include <cstdint>
#include <string>

#include "geometry/envelope.h"
#include "index/index_builder.h"
#include "mapreduce/cluster.h"

namespace shadoop::optimizer {

/// Simulated cost of one candidate physical plan, derived purely from the
/// per-partition MBR/record/byte stats of the global index and the
/// ClusterConfig constants — the same charges JobCost would accumulate,
/// computed without running anything. No wall clock anywhere in this
/// module (the `optimizer-wall-clock` lint enforces it): identical inputs
/// must price identical plans on every machine, or EXPLAIN output and the
/// server's plan-fingerprinted cache keys would diverge across hosts.
struct PlanCost {
  double total_ms = 0;         // Modeled end-to-end time, all jobs.
  uint64_t bytes_read = 0;     // Simulated bytes scanned from disk.
  uint64_t bytes_shuffled = 0; // Simulated bytes through the shuffle.
  int tasks = 0;               // Map + reduce tasks across all jobs.
  int jobs = 0;                // Job startups charged.
};

/// Expected fraction of the file's records intersecting `query`,
/// estimated from partition MBRs: each partition contributes its record
/// count scaled by the area fraction of its MBR covered by the query
/// (degenerate zero-extent axes count as fully covered). In [0, 1].
double EstimateSelectivity(const index::GlobalIndex& index,
                           const Envelope& query);

/// True when the layout stores some records in more than one partition
/// (disjoint cells replicate every shape overlapping a boundary). A full
/// scan of such a file would double-report, so scan-based alternatives
/// are ineligible for it.
bool IsReplicatedStorage(const index::SpatialFileInfo& info);

/// Distributed join: one map-only job, one task per overlapping
/// partition pair reading both partitions in full. `build_right` prices
/// the in-memory structure on the B side (probing with A) instead.
PlanCost CostDistributedJoin(const mapreduce::ClusterConfig& cluster,
                             const index::SpatialFileInfo& a,
                             const index::SpatialFileInfo& b,
                             bool build_right);

/// SJMR: two MBR-scan jobs plus the repartition join job that reads both
/// files, shuffles every record once and joins each cell in one of
/// `num_slots` reducers.
PlanCost CostSjmrJoin(const mapreduce::ClusterConfig& cluster,
                      const index::SpatialFileInfo& a,
                      const index::SpatialFileInfo& b);

/// Range/count over the global index: one task per surviving partition.
PlanCost CostRangePruned(const mapreduce::ClusterConfig& cluster,
                         const index::SpatialFileInfo& info,
                         const Envelope& query);

/// Range/count as a full scan: one task per partition, no pruning.
PlanCost CostRangeScan(const mapreduce::ClusterConfig& cluster,
                       const index::SpatialFileInfo& info);

/// Deterministic rendering of a modeled duration: whole milliseconds,
/// round-half-up, no locale or precision surprises between platforms.
std::string FormatMs(double ms);

}  // namespace shadoop::optimizer

#endif  // SHADOOP_OPTIMIZER_COST_MODEL_H_

#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "index/global_index.h"

namespace shadoop::optimizer {
namespace {

/// log2 clamped for the n <= 1 degenerate cases of the kernel models.
double Log2p(double n) { return n > 1 ? std::log2(n) : 1.0; }

/// CPU charge of the in-memory pair kernel: bulk-loading the build side
/// (10 ops per entry per tree level, the RTreeProbe charge) and probing
/// with every record of the other side (50 ops per visited level).
double JoinKernelOps(double build_records, double probe_records) {
  const double levels = Log2p(build_records);
  return 10.0 * build_records * levels + 50.0 * probe_records * levels;
}

/// Modeled cost of one task scanning `bytes` and pushing `records`
/// through a map/reduce function, plus `extra_ops` of kernel CPU.
double TaskMs(const mapreduce::ClusterConfig& cluster, double bytes,
              double records, double extra_ops) {
  return cluster.task_startup_ms + bytes / cluster.disk_bytes_per_ms +
         (records * cluster.ops_per_record + extra_ops) /
             cluster.cpu_ops_per_ms;
}

struct FileTotals {
  double bytes = 0;
  double records = 0;
};

FileTotals Totals(const index::SpatialFileInfo& info) {
  FileTotals t;
  for (const index::Partition& p : info.global_index.partitions()) {
    t.bytes += static_cast<double>(p.num_bytes);
    t.records += static_cast<double>(p.num_records);
  }
  return t;
}

/// One full-scan job over the file: one task per partition block.
PlanCost ScanJobCost(const mapreduce::ClusterConfig& cluster,
                     const index::SpatialFileInfo& info) {
  PlanCost cost;
  std::vector<double> task_ms;
  for (const index::Partition& p : info.global_index.partitions()) {
    task_ms.push_back(TaskMs(cluster, static_cast<double>(p.num_bytes),
                             static_cast<double>(p.num_records), 0));
    cost.bytes_read += p.num_bytes;
  }
  cost.tasks = static_cast<int>(task_ms.size());
  cost.jobs = 1;
  cost.total_ms =
      cluster.job_startup_ms + mapreduce::Makespan(task_ms, cluster.num_slots);
  return cost;
}

/// Covered-area fraction of `extent` under `query`; degenerate axes
/// (zero width or height) count as fully covered when they intersect.
double CoverageFraction(const Envelope& extent, const Envelope& query) {
  if (!extent.Intersects(query)) return 0;
  const Envelope overlap = extent.Intersection(query);
  const double fx = extent.Width() > 0 ? overlap.Width() / extent.Width() : 1;
  const double fy =
      extent.Height() > 0 ? overlap.Height() / extent.Height() : 1;
  return std::min(1.0, fx) * std::min(1.0, fy);
}

}  // namespace

double EstimateSelectivity(const index::GlobalIndex& index,
                           const Envelope& query) {
  double expected = 0;
  double total = 0;
  for (const index::Partition& p : index.partitions()) {
    total += static_cast<double>(p.num_records);
    expected +=
        CoverageFraction(p.mbr, query) * static_cast<double>(p.num_records);
  }
  return total > 0 ? std::min(1.0, expected / total) : 0;
}

bool IsReplicatedStorage(const index::SpatialFileInfo& info) {
  return info.global_index.IsDisjoint() &&
         info.shape != index::ShapeType::kPoint;
}

PlanCost CostDistributedJoin(const mapreduce::ClusterConfig& cluster,
                             const index::SpatialFileInfo& a,
                             const index::SpatialFileInfo& b,
                             bool build_right) {
  const std::vector<index::Partition>& parts_a = a.global_index.partitions();
  const std::vector<index::Partition>& parts_b = b.global_index.partitions();
  PlanCost cost;
  std::vector<double> task_ms;
  for (const auto& [id_a, id_b] :
       index::OverlappingPartitionPairs(a.global_index, b.global_index)) {
    const index::Partition& pa = parts_a[id_a];
    const index::Partition& pb = parts_b[id_b];
    const double bytes =
        static_cast<double>(pa.num_bytes) + static_cast<double>(pb.num_bytes);
    const double na = static_cast<double>(pa.num_records);
    const double nb = static_cast<double>(pb.num_records);
    const double kernel = build_right ? JoinKernelOps(nb, na)
                                      : JoinKernelOps(na, nb);
    task_ms.push_back(TaskMs(cluster, bytes, na + nb, kernel));
    cost.bytes_read += pa.num_bytes + pb.num_bytes;
  }
  cost.tasks = static_cast<int>(task_ms.size());
  cost.jobs = 1;
  cost.total_ms =
      cluster.job_startup_ms + mapreduce::Makespan(task_ms, cluster.num_slots);
  return cost;
}

PlanCost CostSjmrJoin(const mapreduce::ClusterConfig& cluster,
                      const index::SpatialFileInfo& a,
                      const index::SpatialFileInfo& b) {
  PlanCost cost;
  // Preprocessing: one MBR-scan job per input.
  for (const index::SpatialFileInfo* info : {&a, &b}) {
    const PlanCost scan = ScanJobCost(cluster, *info);
    cost.total_ms += scan.total_ms;
    cost.bytes_read += scan.bytes_read;
    cost.tasks += scan.tasks;
    cost.jobs += scan.jobs;
  }
  // Repartition join job: maps re-read both files and shuffle every
  // record once; num_slots reducers split the cells evenly in the model.
  const FileTotals ta = Totals(a);
  const FileTotals tb = Totals(b);
  const PlanCost map_a = ScanJobCost(cluster, a);
  const PlanCost map_b = ScanJobCost(cluster, b);
  const double map_ms = map_a.total_ms + map_b.total_ms -
                        2 * cluster.job_startup_ms;
  const double shuffled = ta.bytes + tb.bytes;
  const double shuffle_ms = shuffled / cluster.net_bytes_per_ms;
  const double reduce_records =
      (ta.records + tb.records) / std::max(1, cluster.num_slots);
  const double reduce_ms =
      TaskMs(cluster, 0, reduce_records,
             JoinKernelOps(reduce_records / 2, reduce_records / 2));
  cost.total_ms += cluster.job_startup_ms + map_ms + shuffle_ms + reduce_ms;
  cost.bytes_read += map_a.bytes_read + map_b.bytes_read;
  cost.bytes_shuffled = static_cast<uint64_t>(shuffled);
  cost.tasks += map_a.tasks + map_b.tasks + cluster.num_slots;
  cost.jobs += 1;
  return cost;
}

PlanCost CostRangePruned(const mapreduce::ClusterConfig& cluster,
                         const index::SpatialFileInfo& info,
                         const Envelope& query) {
  PlanCost cost;
  std::vector<double> task_ms;
  for (int id : info.global_index.OverlappingPartitions(query)) {
    const index::Partition& p = info.global_index.partitions()[id];
    task_ms.push_back(TaskMs(cluster, static_cast<double>(p.num_bytes),
                             static_cast<double>(p.num_records), 0));
    cost.bytes_read += p.num_bytes;
  }
  cost.tasks = static_cast<int>(task_ms.size());
  cost.jobs = 1;
  cost.total_ms =
      cluster.job_startup_ms + mapreduce::Makespan(task_ms, cluster.num_slots);
  return cost;
}

PlanCost CostRangeScan(const mapreduce::ClusterConfig& cluster,
                       const index::SpatialFileInfo& info) {
  return ScanJobCost(cluster, info);
}

std::string FormatMs(double ms) {
  return std::to_string(static_cast<long long>(std::llround(ms)));
}

}  // namespace shadoop::optimizer

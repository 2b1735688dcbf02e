#ifndef SHADOOP_BENCH_BENCH_COMMON_H_
#define SHADOOP_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "hdfs/file_system.h"
#include "index/index_builder.h"
#include "mapreduce/job_runner.h"
#include "workload/generators.h"

namespace shadoop::bench {

/// The benchmark suite's scaled-down cluster: 25 worker slots (as in the
/// paper), 64 KiB blocks standing in for Hadoop's 64 MB blocks. To keep
/// the paper's *cost ratios* intact under the 1024x block shrink, the
/// cost-model bandwidths shrink by the same factor: one block still costs
/// ~0.65 s to scan, versus a 5 s job startup and 0.2 s task startup —
/// exactly the regime of the original cluster. Datasets of 10^5..10^6
/// records then span hundreds of blocks, matching the block-count regime
/// of the paper's 10^9-record datasets.
struct BenchCluster {
  explicit BenchCluster(size_t block_size = 64 * 1024, int num_slots = 25)
      : fs(MakeHdfsConfig(block_size)),
        runner(&fs, MakeClusterConfig(num_slots)) {}

  static hdfs::HdfsConfig MakeHdfsConfig(size_t block_size) {
    hdfs::HdfsConfig config;
    config.block_size = block_size;
    config.num_datanodes = 25;
    return config;
  }

  static mapreduce::ClusterConfig MakeClusterConfig(int num_slots) {
    mapreduce::ClusterConfig config;
    config.num_slots = num_slots;
    config.disk_bytes_per_ms = 100.0;  // 100 MB/s scaled by 1/1024.
    config.net_bytes_per_ms = 125.0;   // 1 Gb/s scaled by 1/1024.
    return config;
  }

  hdfs::FileSystem fs;
  mapreduce::JobRunner runner;
};

/// The records of `count` generated points, as WritePoints writes them.
inline std::vector<std::string> PointRecords(size_t count,
                                             workload::Distribution dist,
                                             uint64_t seed) {
  workload::PointGenOptions options;
  options.distribution = dist;
  options.count = count;
  options.seed = seed;
  return workload::PointsToRecords(workload::GeneratePoints(options));
}

inline void WritePoints(hdfs::FileSystem* fs, const std::string& path,
                        size_t count, workload::Distribution dist,
                        uint64_t seed) {
  SHADOOP_CHECK_OK(fs->WriteLines(path, PointRecords(count, dist, seed)));
}

inline void WriteRects(hdfs::FileSystem* fs, const std::string& path,
                       size_t count, uint64_t seed,
                       double max_side_fraction = 0.01) {
  workload::RectGenOptions options;
  options.centers.count = count;
  options.centers.seed = seed;
  options.centers.distribution = workload::Distribution::kClustered;
  options.max_side_fraction = max_side_fraction;
  SHADOOP_CHECK_OK(workload::WriteRectangleFile(fs, path, options));
}

inline void WritePolygons(hdfs::FileSystem* fs, const std::string& path,
                          size_t count, uint64_t seed,
                          double max_radius_fraction) {
  workload::PolygonGenOptions options;
  options.centers.count = count;
  options.centers.seed = seed;
  options.centers.distribution = workload::Distribution::kClustered;
  options.max_radius_fraction = max_radius_fraction;
  SHADOOP_CHECK_OK(workload::WritePolygonFile(fs, path, options));
}

inline index::SpatialFileInfo BuildIndex(
    mapreduce::JobRunner* runner, const std::string& src,
    const std::string& dst, index::PartitionScheme scheme,
    index::ShapeType shape = index::ShapeType::kPoint) {
  index::IndexBuilder builder(runner);
  index::IndexBuildOptions options;
  options.scheme = scheme;
  options.shape = shape;
  return builder.Build(src, dst, options).ValueOrDie();
}

}  // namespace shadoop::bench

#endif  // SHADOOP_BENCH_BENCH_COMMON_H_

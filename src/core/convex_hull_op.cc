#include "core/convex_hull_op.h"

#include <set>

#include "core/query_pipeline.h"
#include "core/skyline_op.h"
#include "geometry/convex_hull.h"

namespace shadoop::core {
namespace {

/// The hull as a two-round point merge (query_pipeline.h), mirroring the
/// skyline.
const PointMerge kHullMerge = {&ConvexHull, "H", "hull"};

}  // namespace

std::vector<int> ConvexHullPartitionFilter(const index::GlobalIndex& gi) {
  std::set<int> selected;
  for (SkylineDominance dir :
       {SkylineDominance::kMaxMax, SkylineDominance::kMaxMin,
        SkylineDominance::kMinMax, SkylineDominance::kMinMin}) {
    for (int id : SkylinePartitionFilter(gi, dir)) selected.insert(id);
  }
  return std::vector<int>(selected.begin(), selected.end());
}

Result<std::vector<Point>> ConvexHullHadoop(mapreduce::JobRunner* runner,
                                            const std::string& path,
                                            OpStats* stats) {
  SpatialJobBuilder builder(runner);
  builder.ScanFile(path);
  return RunPointMerge(builder, kHullMerge, "convex-hull-hadoop",
                       /*indexed=*/nullptr, stats);
}

Result<std::vector<Point>> ConvexHullSpatial(mapreduce::JobRunner* runner,
                                             const index::SpatialFileInfo& file,
                                             OpStats* stats) {
  SpatialJobBuilder builder(runner);
  builder.ScanIndexed(file, [](const index::GlobalIndex& gi) {
    return ConvexHullPartitionFilter(gi);
  });
  return RunPointMerge(builder, kHullMerge, "convex-hull-spatial", &file,
                       stats);
}

}  // namespace shadoop::core

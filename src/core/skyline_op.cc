#include "core/skyline_op.h"

#include "core/query_pipeline.h"

namespace shadoop::core {
namespace {

/// Skyline as a two-round point merge (query_pipeline.h).
const PointMerge kSkylineMerge = {
    [](std::vector<Point> points) { return Skyline(std::move(points)); },
    "S", "skyline"};

}  // namespace

std::vector<int> SkylinePartitionFilter(const index::GlobalIndex& gi,
                                        SkylineDominance dir) {
  const auto& parts = gi.partitions();
  std::vector<int> selected;
  for (size_t j = 0; j < parts.size(); ++j) {
    // The extreme corner of cj: the best any point of cj could be.
    Point best = parts[j].mbr.TopRight();
    switch (dir) {
      case SkylineDominance::kMaxMax:
        best = parts[j].mbr.TopRight();
        break;
      case SkylineDominance::kMaxMin:
        best = parts[j].mbr.BottomRight();
        break;
      case SkylineDominance::kMinMax:
        best = parts[j].mbr.TopLeft();
        break;
      case SkylineDominance::kMinMin:
        best = parts[j].mbr.BottomLeft();
        break;
    }
    bool pruned = false;
    for (size_t i = 0; i < parts.size() && !pruned; ++i) {
      if (i == j) continue;
      // Guaranteed dominators of ci: each MBR edge touches a data point,
      // so the three non-extreme corners are lower bounds on real points.
      const Envelope& mbr = parts[i].mbr;
      const Point corners[4] = {mbr.BottomLeft(), mbr.BottomRight(),
                                mbr.TopLeft(), mbr.TopRight()};
      // Exclude the extreme corner for this direction: it may exceed every
      // actual point of ci.
      for (const Point& corner : corners) {
        bool is_extreme = false;
        switch (dir) {
          case SkylineDominance::kMaxMax:
            is_extreme = corner == mbr.TopRight();
            break;
          case SkylineDominance::kMaxMin:
            is_extreme = corner == mbr.BottomRight();
            break;
          case SkylineDominance::kMinMax:
            is_extreme = corner == mbr.TopLeft();
            break;
          case SkylineDominance::kMinMin:
            is_extreme = corner == mbr.BottomLeft();
            break;
        }
        if (is_extreme) continue;
        if (Dominates(corner, best, dir)) {
          pruned = true;
          break;
        }
      }
    }
    if (!pruned) selected.push_back(parts[j].id);
  }
  return selected;
}

Result<std::vector<Point>> SkylineHadoop(mapreduce::JobRunner* runner,
                                         const std::string& path,
                                         OpStats* stats) {
  SpatialJobBuilder builder(runner);
  builder.ScanFile(path);
  return RunPointMerge(builder, kSkylineMerge, "skyline-hadoop",
                       /*indexed=*/nullptr, stats);
}

Result<std::vector<Point>> SkylineSpatial(mapreduce::JobRunner* runner,
                                          const index::SpatialFileInfo& file,
                                          OpStats* stats) {
  SpatialJobBuilder builder(runner);
  builder.ScanIndexed(file, [](const index::GlobalIndex& gi) {
    return SkylinePartitionFilter(gi, SkylineDominance::kMaxMax);
  });
  return RunPointMerge(builder, kSkylineMerge, "skyline-spatial", &file,
                       stats);
}

}  // namespace shadoop::core

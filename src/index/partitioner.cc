#include "index/partitioner.h"

#include "index/curve_partitioner.h"
#include "index/grid_partitioner.h"
#include "index/kdtree_partitioner.h"
#include "index/quadtree_partitioner.h"
#include "index/str_partitioner.h"

namespace shadoop::index {

void Partitioner::AssignEnvelope(const Envelope& extent,
                                 std::vector<int>* cells) const {
  cells->clear();
  // Degenerate (point) extents follow the half-open point assignment: a
  // point on a shared cell edge belongs to exactly one cell, never two.
  const bool point = extent.Width() == 0.0 && extent.Height() == 0.0;
  if (!point && IsDisjoint()) OverlappingCells(extent, cells);
  if (cells->empty()) cells->push_back(AssignPoint(extent.Center()));
}

void Partitioner::OverlappingCells(const Envelope& extent,
                                   std::vector<int>* out) const {
  for (int id = 0; id < NumCells(); ++id) {
    if (CellExtent(id).Intersects(extent)) out->push_back(id);
  }
}

Result<std::unique_ptr<Partitioner>> MakePartitioner(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kGrid:
      return std::unique_ptr<Partitioner>(new GridPartitioner());
    case PartitionScheme::kStr:
      return std::unique_ptr<Partitioner>(new StrPartitioner(false));
    case PartitionScheme::kStrPlus:
      return std::unique_ptr<Partitioner>(new StrPartitioner(true));
    case PartitionScheme::kQuadTree:
      return std::unique_ptr<Partitioner>(new QuadTreePartitioner());
    case PartitionScheme::kKdTree:
      return std::unique_ptr<Partitioner>(new KdTreePartitioner());
    case PartitionScheme::kZCurve:
      return std::unique_ptr<Partitioner>(
          new CurvePartitioner(CurvePartitioner::Curve::kZOrder));
    case PartitionScheme::kHilbert:
      return std::unique_ptr<Partitioner>(
          new CurvePartitioner(CurvePartitioner::Curve::kHilbert));
    case PartitionScheme::kNone:
      return Status::InvalidArgument(
          "scheme 'none' has no partitioner (use the default Hadoop loader)");
  }
  return Status::InvalidArgument("unknown partition scheme");
}

}  // namespace shadoop::index

#include "index/grid_partitioner.h"

#include <algorithm>
#include <cmath>

namespace shadoop::index {

Status GridPartitioner::Construct(const Envelope& space,
                                  const std::vector<Point>& sample,
                                  int target_partitions) {
  (void)sample;  // The uniform grid is oblivious to the data distribution.
  if (space.IsEmpty()) {
    return Status::InvalidArgument("grid partitioner needs a non-empty space");
  }
  if (target_partitions < 1) {
    return Status::InvalidArgument("target_partitions must be >= 1");
  }
  space_ = space;
  cols_ = static_cast<int>(std::ceil(std::sqrt(target_partitions)));
  rows_ = (target_partitions + cols_ - 1) / cols_;
  return Status::OK();
}

int GridPartitioner::ColumnOf(double x) const {
  const double w = space_.Width();
  if (w <= 0) return 0;
  const int col = static_cast<int>((x - space_.min_x()) / w * cols_);
  return std::clamp(col, 0, cols_ - 1);
}

int GridPartitioner::RowOf(double y) const {
  const double h = space_.Height();
  if (h <= 0) return 0;
  const int row = static_cast<int>((y - space_.min_y()) / h * rows_);
  return std::clamp(row, 0, rows_ - 1);
}

Envelope GridPartitioner::CellExtent(int id) const {
  const int col = id % cols_;
  const int row = id / cols_;
  const double w = space_.Width() / cols_;
  const double h = space_.Height() / rows_;
  return Envelope(space_.min_x() + col * w, space_.min_y() + row * h,
                  col == cols_ - 1 ? space_.max_x() : space_.min_x() + (col + 1) * w,
                  row == rows_ - 1 ? space_.max_y() : space_.min_y() + (row + 1) * h);
}

int GridPartitioner::AssignPoint(const Point& p) const {
  return RowOf(p.y) * cols_ + ColumnOf(p.x);
}

void GridPartitioner::OverlappingCells(const Envelope& extent,
                                       std::vector<int>* out) const {
  const int c0 = ColumnOf(extent.min_x());
  const int c1 = ColumnOf(extent.max_x());
  const int r0 = RowOf(extent.min_y());
  const int r1 = RowOf(extent.max_y());
  for (int r = r0; r <= r1; ++r) {
    for (int c = c0; c <= c1; ++c) {
      out->push_back(r * cols_ + c);
    }
  }
}

}  // namespace shadoop::index

#include "index/str_partitioner.h"

#include <algorithm>
#include <cmath>

namespace shadoop::index {

Status StrPartitioner::Construct(const Envelope& space,
                                 const std::vector<Point>& sample,
                                 int target_partitions) {
  if (space.IsEmpty()) {
    return Status::InvalidArgument("STR partitioner needs a non-empty space");
  }
  if (target_partitions < 1) {
    return Status::InvalidArgument("target_partitions must be >= 1");
  }
  space_ = space;
  x_bounds_.clear();
  y_bounds_.clear();
  first_cell_of_slab_.clear();

  if (sample.empty()) {
    // Degrade gracefully to a single cell covering the space.
    x_bounds_ = {space.min_x(), space.max_x()};
    y_bounds_ = {{space.min_y(), space.max_y()}};
    first_cell_of_slab_ = {0, 1};
    num_cells_ = 1;
    return Status::OK();
  }

  const int num_slabs = static_cast<int>(
      std::ceil(std::sqrt(static_cast<double>(target_partitions))));
  const int rows_per_slab = (target_partitions + num_slabs - 1) / num_slabs;

  // Slab boundaries at x-quantiles of the sample.
  std::vector<double> xs;
  xs.reserve(sample.size());
  for (const Point& p : sample) xs.push_back(p.x);
  std::sort(xs.begin(), xs.end());
  x_bounds_.push_back(space.min_x());
  for (int s = 1; s < num_slabs; ++s) {
    const size_t idx = s * xs.size() / num_slabs;
    double b = xs[std::min(idx, xs.size() - 1)];
    // Keep boundaries strictly increasing under heavy duplication.
    if (b <= x_bounds_.back()) b = x_bounds_.back();
    x_bounds_.push_back(b);
  }
  x_bounds_.push_back(space.max_x());

  // Row boundaries at y-quantiles within each slab, ys bucketed in one pass.
  std::vector<std::vector<double>> slab_ys(num_slabs);
  for (const Point& p : sample) slab_ys[SlabOf(p.x)].push_back(p.y);
  int next_cell = 0;
  for (int s = 0; s < num_slabs; ++s) {
    first_cell_of_slab_.push_back(next_cell);
    std::vector<double>& ys = slab_ys[s];
    std::sort(ys.begin(), ys.end());
    std::vector<double> bounds;
    bounds.push_back(space.min_y());
    const int rows = ys.empty() ? 1 : rows_per_slab;
    for (int r = 1; r < rows; ++r) {
      const size_t idx = r * ys.size() / rows;
      double b = ys[std::min(idx, ys.size() - 1)];
      if (b <= bounds.back()) b = bounds.back();
      bounds.push_back(b);
    }
    bounds.push_back(space.max_y());
    next_cell += static_cast<int>(bounds.size()) - 1;
    y_bounds_.push_back(std::move(bounds));
  }
  first_cell_of_slab_.push_back(next_cell);
  num_cells_ = next_cell;
  return Status::OK();
}

int StrPartitioner::SlabOf(double x) const {
  // upper_bound on interior boundaries: slab i covers [xb[i], xb[i+1]).
  const auto begin = x_bounds_.begin() + 1;
  const auto end = x_bounds_.end() - 1;
  return static_cast<int>(std::upper_bound(begin, end, x) - begin);
}

Envelope StrPartitioner::CellExtent(int id) const {
  // Find the slab via the prefix sums.
  const auto it = std::upper_bound(first_cell_of_slab_.begin(),
                                   first_cell_of_slab_.end(), id);
  const int slab = static_cast<int>(it - first_cell_of_slab_.begin()) - 1;
  const int row = id - first_cell_of_slab_[slab];
  return Envelope(x_bounds_[slab], y_bounds_[slab][row], x_bounds_[slab + 1],
                  y_bounds_[slab][row + 1]);
}

int StrPartitioner::AssignPoint(const Point& p) const {
  const int slab = SlabOf(p.x);
  const std::vector<double>& bounds = y_bounds_[slab];
  const auto begin = bounds.begin() + 1;
  const auto end = bounds.end() - 1;
  const int row = static_cast<int>(std::upper_bound(begin, end, p.y) - begin);
  return first_cell_of_slab_[slab] + row;
}

}  // namespace shadoop::index

#ifndef SHADOOP_INDEX_GRID_PARTITIONER_H_
#define SHADOOP_INDEX_GRID_PARTITIONER_H_

#include "index/partitioner.h"

namespace shadoop::index {

/// Uniform grid partitioning: ceil(sqrt(n)) columns x rows over the input
/// MBR. Ignores the sample — the only technique that cannot adapt to
/// skew, which experiment E2 demonstrates.
class GridPartitioner : public Partitioner {
 public:
  PartitionScheme scheme() const override { return PartitionScheme::kGrid; }

  Status Construct(const Envelope& space, const std::vector<Point>& sample,
                   int target_partitions) override;

  int NumCells() const override { return cols_ * rows_; }
  Envelope CellExtent(int id) const override;
  int AssignPoint(const Point& p) const override;

  int cols() const { return cols_; }
  int rows() const { return rows_; }

 protected:
  void OverlappingCells(const Envelope& extent,
                        std::vector<int>* out) const override;

 private:
  int ColumnOf(double x) const;
  int RowOf(double y) const;

  Envelope space_;
  int cols_ = 0;
  int rows_ = 0;
};

}  // namespace shadoop::index

#endif  // SHADOOP_INDEX_GRID_PARTITIONER_H_

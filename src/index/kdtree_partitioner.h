#ifndef SHADOOP_INDEX_KDTREE_PARTITIONER_H_
#define SHADOOP_INDEX_KDTREE_PARTITIONER_H_

#include <memory>

#include "index/partitioner.h"

namespace shadoop::index {

/// K-d tree partitioning: recursive median splits of the sample along the
/// wider axis of each cell until the target number of leaves is reached.
/// Produces a disjoint tiling with near-equal record counts regardless of
/// skew.
class KdTreePartitioner : public Partitioner {
 public:
  PartitionScheme scheme() const override { return PartitionScheme::kKdTree; }

  Status Construct(const Envelope& space, const std::vector<Point>& sample,
                   int target_partitions) override;

  int NumCells() const override { return static_cast<int>(leaves_.size()); }
  Envelope CellExtent(int id) const override { return leaves_[id]; }
  int AssignPoint(const Point& p) const override;

 protected:
  void OverlappingCells(const Envelope& extent,
                        std::vector<int>* out) const override;

 private:
  struct Node {
    Envelope box;
    int leaf_id = -1;
    bool split_on_x = true;
    double split_value = 0.0;
    std::unique_ptr<Node> low;   // Coordinate < split_value.
    std::unique_ptr<Node> high;  // Coordinate >= split_value.
  };

  void Split(Node* node, std::vector<Point> points, int target);
  void CollectOverlaps(const Node* node, const Envelope& extent,
                       std::vector<int>* out) const;

  std::unique_ptr<Node> root_;
  std::vector<Envelope> leaves_;
};

}  // namespace shadoop::index

#endif  // SHADOOP_INDEX_KDTREE_PARTITIONER_H_

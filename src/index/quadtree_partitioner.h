#ifndef SHADOOP_INDEX_QUADTREE_PARTITIONER_H_
#define SHADOOP_INDEX_QUADTREE_PARTITIONER_H_

#include <memory>

#include "index/partitioner.h"

namespace shadoop::index {

/// Quad-tree partitioning: the space is recursively split into four
/// quadrants while a quadrant holds more than `capacity` sample points.
/// Leaves form a disjoint tiling; shapes with extent are replicated to
/// every leaf they overlap.
class QuadTreePartitioner : public Partitioner {
 public:
  PartitionScheme scheme() const override { return PartitionScheme::kQuadTree; }

  Status Construct(const Envelope& space, const std::vector<Point>& sample,
                   int target_partitions) override;

  int NumCells() const override { return static_cast<int>(leaves_.size()); }
  Envelope CellExtent(int id) const override { return leaves_[id]; }
  int AssignPoint(const Point& p) const override;

  int MaxDepth() const { return max_depth_reached_; }

 protected:
  void OverlappingCells(const Envelope& extent,
                        std::vector<int>* out) const override;

 private:
  struct Node {
    Envelope box;
    int leaf_id = -1;                    // >= 0 for leaves.
    std::unique_ptr<Node> children[4];   // SW, SE, NW, NE when internal.
  };

  void Split(Node* node, std::vector<Point> points, size_t capacity,
             int depth);
  void CollectOverlaps(const Node* node, const Envelope& extent,
                       std::vector<int>* out) const;

  std::unique_ptr<Node> root_;
  std::vector<Envelope> leaves_;
  int max_depth_reached_ = 0;

  static constexpr int kMaxDepth = 20;
};

}  // namespace shadoop::index

#endif  // SHADOOP_INDEX_QUADTREE_PARTITIONER_H_

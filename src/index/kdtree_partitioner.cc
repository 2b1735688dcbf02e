#include "index/kdtree_partitioner.h"

#include <algorithm>

namespace shadoop::index {

Status KdTreePartitioner::Construct(const Envelope& space,
                                    const std::vector<Point>& sample,
                                    int target_partitions) {
  if (space.IsEmpty()) {
    return Status::InvalidArgument(
        "k-d tree partitioner needs a non-empty space");
  }
  if (target_partitions < 1) {
    return Status::InvalidArgument("target_partitions must be >= 1");
  }
  leaves_.clear();
  root_ = std::make_unique<Node>();
  root_->box = space;
  Split(root_.get(), sample, target_partitions);
  return Status::OK();
}

void KdTreePartitioner::Split(Node* node, std::vector<Point> points,
                              int target) {
  if (target <= 1 || points.size() < 2) {
    node->leaf_id = static_cast<int>(leaves_.size());
    leaves_.push_back(node->box);
    return;
  }
  node->split_on_x = node->box.Width() >= node->box.Height();
  const int low_target = target / 2;
  // Median position proportional to the target split so odd targets stay
  // balanced in expected record count.
  const size_t k = points.size() * static_cast<size_t>(low_target) /
                   static_cast<size_t>(target);
  auto cmp_x = [](const Point& a, const Point& b) { return a.x < b.x; };
  auto cmp_y = [](const Point& a, const Point& b) { return a.y < b.y; };
  if (node->split_on_x) {
    std::nth_element(points.begin(), points.begin() + k, points.end(), cmp_x);
    node->split_value = points[k].x;
  } else {
    std::nth_element(points.begin(), points.begin() + k, points.end(), cmp_y);
    node->split_value = points[k].y;
  }

  // Degenerate split (all sample values equal): make this a leaf.
  const Envelope& box = node->box;
  const double lo = node->split_on_x ? box.min_x() : box.min_y();
  const double hi = node->split_on_x ? box.max_x() : box.max_y();
  if (node->split_value <= lo || node->split_value >= hi) {
    node->leaf_id = static_cast<int>(leaves_.size());
    leaves_.push_back(node->box);
    return;
  }

  std::vector<Point> low_points;
  std::vector<Point> high_points;
  for (const Point& p : points) {
    const double v = node->split_on_x ? p.x : p.y;
    (v < node->split_value ? low_points : high_points).push_back(p);
  }
  points.clear();
  points.shrink_to_fit();

  node->low = std::make_unique<Node>();
  node->high = std::make_unique<Node>();
  if (node->split_on_x) {
    node->low->box =
        Envelope(box.min_x(), box.min_y(), node->split_value, box.max_y());
    node->high->box =
        Envelope(node->split_value, box.min_y(), box.max_x(), box.max_y());
  } else {
    node->low->box =
        Envelope(box.min_x(), box.min_y(), box.max_x(), node->split_value);
    node->high->box =
        Envelope(box.min_x(), node->split_value, box.max_x(), box.max_y());
  }
  Split(node->low.get(), std::move(low_points), low_target);
  Split(node->high.get(), std::move(high_points), target - low_target);
}

int KdTreePartitioner::AssignPoint(const Point& p) const {
  const Node* node = root_.get();
  while (node->leaf_id < 0) {
    const double v = node->split_on_x ? p.x : p.y;
    node = v < node->split_value ? node->low.get() : node->high.get();
  }
  return node->leaf_id;
}

void KdTreePartitioner::CollectOverlaps(const Node* node,
                                        const Envelope& extent,
                                        std::vector<int>* out) const {
  if (!node->box.Intersects(extent)) return;
  if (node->leaf_id >= 0) {
    out->push_back(node->leaf_id);
    return;
  }
  CollectOverlaps(node->low.get(), extent, out);
  CollectOverlaps(node->high.get(), extent, out);
}

void KdTreePartitioner::OverlappingCells(const Envelope& extent,
                                         std::vector<int>* out) const {
  CollectOverlaps(root_.get(), extent, out);
}

}  // namespace shadoop::index

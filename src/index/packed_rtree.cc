#include "index/packed_rtree.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace shadoop::index {
namespace {

struct KeyIdx {
  double key;
  uint32_t idx;
};

}  // namespace

PackedRTree::PackedRTree(const std::vector<Entry>& entries, int leaf_capacity)
    : capacity_(std::max(2, leaf_capacity)) {
  const size_t n = entries.size();
  if (n == 0) return;

  // STR packing: sort by center x, cut into vertical slabs, sort each slab
  // by center y. Sorting (key, index) pairs instead of Entry structs
  // avoids moving 40-byte records; the entry arrays are filled through
  // the resulting permutation.
  const size_t num_leaves = (n + capacity_ - 1) / capacity_;
  const size_t num_slabs = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(num_leaves))));
  const size_t slab_size =
      ((num_leaves + num_slabs - 1) / num_slabs) * capacity_;

  std::vector<KeyIdx> order(n);
  for (size_t i = 0; i < n; ++i) {
    const Envelope& box = entries[i].box;
    // Same expression as Envelope::Center().x.
    order[i] = {(box.min_x() + box.max_x()) / 2, static_cast<uint32_t>(i)};
  }
  std::sort(order.begin(), order.end(),
            [](const KeyIdx& a, const KeyIdx& b) { return a.key < b.key; });
  for (size_t s = 0; s < n; s += slab_size) {
    const size_t e = std::min(n, s + slab_size);
    for (size_t i = s; i < e; ++i) {
      const Envelope& box = entries[order[i].idx].box;
      order[i].key = (box.min_y() + box.max_y()) / 2;
    }
    std::sort(order.begin() + s, order.begin() + e,
              [](const KeyIdx& a, const KeyIdx& b) { return a.key < b.key; });
  }

  entry_box_.resize(n);
  entry_payload_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Entry& entry = entries[order[i].idx];
    entry_box_[i] = entry.box;
    entry_payload_[i] = entry.payload;
  }
  BuildNodes();
}

void PackedRTree::BuildNodes() {
  const size_t n = entry_box_.size();
  auto push_node = [this](const Envelope& box, uint32_t first, uint32_t last,
                          bool is_leaf) {
    node_box_.push_back(box);
    node_meta_.push_back({first, last, is_leaf});
  };

  // Leaves over consecutive runs of `capacity_` entries.
  std::vector<uint32_t> level;
  for (size_t s = 0; s < n; s += capacity_) {
    const size_t e = std::min(n, s + capacity_);
    Envelope box;
    for (size_t i = s; i < e; ++i) box.ExpandToInclude(entry_box_[i]);
    level.push_back(static_cast<uint32_t>(node_meta_.size()));
    push_node(box, static_cast<uint32_t>(s), static_cast<uint32_t>(e), true);
  }
  // Internal levels bottom-up: children are already in STR order, so
  // consecutive grouping preserves locality, and each group's children
  // are contiguous in node_box_.
  while (level.size() > 1) {
    std::vector<uint32_t> next;
    for (size_t s = 0; s < level.size(); s += capacity_) {
      const size_t e = std::min(level.size(), s + capacity_);
      Envelope box;
      for (size_t i = s; i < e; ++i) box.ExpandToInclude(node_box_[level[i]]);
      next.push_back(static_cast<uint32_t>(node_meta_.size()));
      push_node(box, level[s], level[e - 1] + 1, false);
    }
    level = std::move(next);
  }
  root_ = level.front();
}

Envelope PackedRTree::Bounds() const {
  return node_box_.empty() ? Envelope() : node_box_[root_];
}

size_t PackedRTree::Search(const Envelope& query,
                           std::vector<uint32_t>* out) const {
  if (node_meta_.empty() || !Bounds().Intersects(query)) return 0;
  size_t visited = 0;
  std::vector<uint32_t> stack = {root_};
  while (!stack.empty()) {
    const NodeMeta node = node_meta_[stack.back()];
    stack.pop_back();
    ++visited;
    // Ascending child order: leaf payloads append in entry order, and
    // pushed children pop last-first.
    const Envelope* boxes = node.is_leaf ? entry_box_.data() : node_box_.data();
    for (uint32_t i = node.first; i < node.last; ++i) {
      if (!boxes[i].Intersects(query)) continue;
      if (node.is_leaf) {
        out->push_back(entry_payload_[i]);
      } else {
        stack.push_back(i);
      }
    }
  }
  return visited;
}

std::vector<uint32_t> PackedRTree::NearestNeighbors(const Point& q,
                                                    size_t k) const {
  std::vector<uint32_t> result;
  if (node_meta_.empty() || k == 0) return result;

  // Best-first search over nodes and entries by MinDistance. The queue
  // orders by distance only; ties resolve by the heap's push history,
  // which is fixed because children are pushed in ascending order.
  struct Item {
    double dist;
    bool is_entry;
    uint32_t index;
  };
  auto greater = [](const Item& a, const Item& b) { return a.dist > b.dist; };
  std::priority_queue<Item, std::vector<Item>, decltype(greater)> queue(
      greater);
  queue.push({Bounds().MinDistance(q), false, root_});
  while (!queue.empty() && result.size() < k) {
    const Item item = queue.top();
    queue.pop();
    if (item.is_entry) {
      result.push_back(entry_payload_[item.index]);
      continue;
    }
    const NodeMeta node = node_meta_[item.index];
    const Envelope* boxes = node.is_leaf ? entry_box_.data() : node_box_.data();
    for (uint32_t i = node.first; i < node.last; ++i) {
      queue.push({boxes[i].MinDistance(q), node.is_leaf, i});
    }
  }
  return result;
}

}  // namespace shadoop::index

#ifndef SHADOOP_INDEX_PACKED_RTREE_H_
#define SHADOOP_INDEX_PACKED_RTREE_H_

#include <cstdint>
#include <vector>

#include "geometry/envelope.h"
#include "geometry/point.h"

namespace shadoop::index {

/// Static, STR-bulk-loaded R-tree used as the *local index* of a
/// partition: built once over the records of a block and queried many
/// times. Entries carry an opaque uint32 payload (the record's index in
/// the block).
///
/// Entry and node boxes live in contiguous Envelope arrays, so a node's
/// children are one run of boxes: Search tests them with
/// Envelope::Intersects and NearestNeighbors scores them with
/// Envelope::MinDistance, in ascending order. That order fixes hit
/// order, neighbour order and visited-node counts (the CPU-cost proxy
/// charged to the simulated cost model).
class PackedRTree {
 public:
  struct Entry {
    Envelope box;
    uint32_t payload = 0;
  };

  PackedRTree() = default;

  /// Bulk-loads from entries with Sort-Tile-Recursive packing.
  /// `leaf_capacity` is the R-tree node fan-out.
  explicit PackedRTree(const std::vector<Entry>& entries,
                       int leaf_capacity = 32);

  size_t NumEntries() const { return entry_payload_.size(); }
  bool IsEmpty() const { return entry_payload_.empty(); }

  /// Bounds of everything stored.
  Envelope Bounds() const;

  /// Payloads of all entries whose box intersects `query`, appended to
  /// `out` in depth-first order (children in ascending node order).
  /// Returns the number of tree nodes visited.
  size_t Search(const Envelope& query, std::vector<uint32_t>* out) const;

  /// Payloads of the `k` entries nearest to `q` by MinDistance of their
  /// boxes (exact for point entries), nearest first. Best-first search;
  /// children are queued in ascending node order, so ties pop in a fixed
  /// order.
  std::vector<uint32_t> NearestNeighbors(const Point& q, size_t k) const;

 private:
  struct NodeMeta {
    uint32_t first = 0;  // Children in node_box_ (inner) or entry_box_
    uint32_t last = 0;   // (leaf): [first, last).
    bool is_leaf = true;
  };

  void BuildNodes();

  // Entry boxes and payloads, in STR-packed order.
  std::vector<Envelope> entry_box_;
  std::vector<uint32_t> entry_payload_;

  // Node boxes: leaves first, then each internal level bottom-up; the
  // root is the last node.
  std::vector<Envelope> node_box_;
  std::vector<NodeMeta> node_meta_;
  uint32_t root_ = 0;
  int capacity_ = 32;
};

}  // namespace shadoop::index

#endif  // SHADOOP_INDEX_PACKED_RTREE_H_

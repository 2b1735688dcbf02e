#ifndef SHADOOP_INDEX_PARTITIONER_H_
#define SHADOOP_INDEX_PARTITIONER_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "geometry/envelope.h"
#include "geometry/point.h"
#include "index/partition.h"

namespace shadoop::index {

/// Boundary computation + record assignment for one partitioning
/// technique. A partitioner is constructed once on the master node from a
/// sample of the input (the "boundary computation" phase of index
/// building) and is then broadcast, read-only, to every map task of the
/// partitioning job. All methods are const and thread-safe after
/// Construct().
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  virtual PartitionScheme scheme() const = 0;
  bool IsDisjoint() const { return IsDisjointScheme(scheme()); }

  /// Computes cell boundaries for roughly `target_partitions` cells from a
  /// point `sample` drawn inside `space`. `space` must be non-empty.
  virtual Status Construct(const Envelope& space,
                           const std::vector<Point>& sample,
                           int target_partitions) = 0;

  /// Number of cells produced by Construct().
  virtual int NumCells() const = 0;

  /// Responsibility region of cell `id` (tiling cells for disjoint
  /// schemes; sample-derived bounds for overlapping schemes).
  virtual Envelope CellExtent(int id) const = 0;

  /// The single cell a point belongs to.
  virtual int AssignPoint(const Point& p) const = 0;

  /// Sets `*cells` to every cell a shape with the given extent is stored
  /// in. For disjoint schemes this is every overlapping cell
  /// (replication); overlapping schemes store the shape once, in the cell
  /// of its center. The caller owns the vector, so a mapper routing many
  /// records reuses one.
  void AssignEnvelope(const Envelope& extent, std::vector<int>* cells) const;

 protected:
  /// Appends the cells overlapping `extent` to `*out`; default scans all
  /// cells (subclasses with structure override for speed).
  virtual void OverlappingCells(const Envelope& extent,
                                std::vector<int>* out) const;
};

/// Factory over all techniques.
Result<std::unique_ptr<Partitioner>> MakePartitioner(PartitionScheme scheme);

}  // namespace shadoop::index

#endif  // SHADOOP_INDEX_PARTITIONER_H_

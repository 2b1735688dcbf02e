#ifndef SHADOOP_INDEX_GLOBAL_INDEX_H_
#define SHADOOP_INDEX_GLOBAL_INDEX_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "geometry/envelope.h"
#include "geometry/point.h"
#include "index/partition.h"

namespace shadoop::index {

/// The master-node view of a spatially indexed file: one Partition entry
/// per data block, queried by the SpatialFileSplitter to prune blocks.
/// Persisted as the "_master.<scheme>" companion file of the data file.
class GlobalIndex {
 public:
  GlobalIndex() = default;
  GlobalIndex(PartitionScheme scheme, std::vector<Partition> partitions)
      : scheme_(scheme), partitions_(std::move(partitions)) {}

  PartitionScheme scheme() const { return scheme_; }
  bool IsDisjoint() const { return IsDisjointScheme(scheme_); }

  const std::vector<Partition>& partitions() const { return partitions_; }
  size_t NumPartitions() const { return partitions_.size(); }

  /// MBR of the whole file.
  Envelope Bounds() const;

  /// Partition ids whose MBR intersects `query` — the built-in range
  /// filter function.
  std::vector<int> OverlappingPartitions(const Envelope& query) const;

  /// MinDistance of every partition's MBR to `p`, in partition order.
  /// The kNN seeding/pruning steps rank partitions with this.
  std::vector<double> PartitionDistances(const Point& p) const;

  /// Serialization to/from the master-file line format:
  /// id,block,cell_x1,cell_y1,cell_x2,cell_y2,mbr_x1,mbr_y1,mbr_x2,mbr_y2,
  /// records,bytes[,source_path]
  /// The optional 13th field is emitted only when some partition carries a
  /// source path (versioned datasets sharing blocks across versions), so
  /// pre-catalog master files round-trip byte-identically.
  std::vector<std::string> ToLines() const;
  /// Parses one line of ToLines(). The id, block, records and bytes
  /// fields must not be negative, and the cell and MBR must each be a
  /// finite box with min <= max on both axes or the canonical empty box
  /// (what Envelope() writes), so the MBR filters never see an inverted
  /// or NaN box.
  static Result<Partition> ParseLine(std::string_view line);

 private:
  PartitionScheme scheme_ = PartitionScheme::kNone;
  std::vector<Partition> partitions_;
};

/// Partition pairs (a_id, b_id) whose MBRs intersect — the global-join
/// step of the distributed spatial join, run master-side over the two
/// master files before any block is read.
std::vector<std::pair<int, int>> OverlappingPartitionPairs(
    const GlobalIndex& a, const GlobalIndex& b);

}  // namespace shadoop::index

#endif  // SHADOOP_INDEX_GLOBAL_INDEX_H_

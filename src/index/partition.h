#ifndef SHADOOP_INDEX_PARTITION_H_
#define SHADOOP_INDEX_PARTITION_H_

#include <string>

#include "common/result.h"
#include "geometry/envelope.h"

namespace shadoop::index {

/// The spatial partitioning techniques supported by the indexing layer
/// (Table 1 of the system's partitioning study).
enum class PartitionScheme {
  kNone,      // Default Hadoop: random (non-spatial) block placement.
  kGrid,      // Uniform grid; disjoint.
  kStr,       // Sort-tile-recursive on a sample; overlapping (one copy).
  kStrPlus,   // STR tiling treated as disjoint cells; replicates shapes.
  kQuadTree,  // Sample quad-tree leaves; disjoint.
  kKdTree,    // Sample k-d tree leaves; disjoint.
  kZCurve,    // Z-order range partitioning; overlapping.
  kHilbert,   // Hilbert-curve range partitioning; overlapping.
};

/// True for techniques whose cells tile space without overlap (records
/// whose extent crosses a boundary are replicated). Several operations
/// (closest pair, the pruning-based CG algorithms) require this.
bool IsDisjointScheme(PartitionScheme scheme);

const char* PartitionSchemeName(PartitionScheme scheme);
Result<PartitionScheme> ParsePartitionScheme(const std::string& name);

/// One cell of a global index: the region a partition is responsible for
/// (`cell`, meaningful for disjoint schemes), the tight bounds of what it
/// actually stores (`mbr`, used by filter functions), and its location in
/// the indexed file (block `block_index` of the data file).
struct Partition {
  int id = 0;
  size_t block_index = 0;
  Envelope cell;
  Envelope mbr;
  size_t num_records = 0;
  size_t num_bytes = 0;
  /// Data file holding this partition's block. Empty means "the indexed
  /// file itself" (SpatialFileInfo::data_path) — the only case before the
  /// dataset catalog existed. Versioned datasets share untouched
  /// partitions across versions by pointing several masters at the same
  /// (source_path, block_index) block, so a new version only rewrites the
  /// partitions an append actually touched (copy-on-write).
  std::string source_path;
};

/// The file a partition's block lives in: its explicit source_path, or
/// the owning file's data_path when unset.
inline const std::string& PartitionSourcePath(const Partition& p,
                                              const std::string& data_path) {
  return p.source_path.empty() ? data_path : p.source_path;
}

}  // namespace shadoop::index

#endif  // SHADOOP_INDEX_PARTITION_H_

#include "index/global_index.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/string_util.h"
#include "geometry/wkt.h"

namespace shadoop::index {
namespace {

/// A box the MBR filters may hold: finite with min <= max on both axes,
/// or exactly the canonical empty box. On these Envelope::Intersects and
/// MinDistance need no care for inverted or NaN bounds (DESIGN.md §13).
bool IsFilterableBox(const double* c) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (c[0] == kInf && c[1] == kInf && c[2] == -kInf && c[3] == -kInf) {
    return true;
  }
  return std::isfinite(c[0]) && std::isfinite(c[1]) && std::isfinite(c[2]) &&
         std::isfinite(c[3]) && c[0] <= c[2] && c[1] <= c[3];
}

}  // namespace

std::vector<std::pair<int, int>> OverlappingPartitionPairs(
    const GlobalIndex& a, const GlobalIndex& b) {
  // Pairs in a's partition order, each a-partition's b hits ascending.
  std::vector<std::pair<int, int>> pairs;
  for (const Partition& pa : a.partitions()) {
    for (int ib : b.OverlappingPartitions(pa.mbr)) {
      pairs.emplace_back(pa.id, ib);
    }
  }
  return pairs;
}

Envelope GlobalIndex::Bounds() const {
  Envelope bounds;
  for (const Partition& p : partitions_) bounds.ExpandToInclude(p.mbr);
  return bounds;
}

std::vector<int> GlobalIndex::OverlappingPartitions(
    const Envelope& query) const {
  std::vector<int> ids;
  for (const Partition& p : partitions_) {
    if (p.mbr.Intersects(query)) ids.push_back(p.id);
  }
  return ids;
}

std::vector<double> GlobalIndex::PartitionDistances(const Point& p) const {
  std::vector<double> distances;
  distances.reserve(partitions_.size());
  for (const Partition& part : partitions_) {
    distances.push_back(part.mbr.MinDistance(p));
  }
  return distances;
}

std::vector<std::string> GlobalIndex::ToLines() const {
  // The 13th (source path) field appears only when some partition lives
  // outside the data file, so pre-catalog masters stay byte-identical.
  bool any_source = false;
  for (const Partition& p : partitions_) {
    if (!p.source_path.empty()) any_source = true;
  }
  std::vector<std::string> lines;
  lines.reserve(partitions_.size());
  for (const Partition& p : partitions_) {
    std::string line = std::to_string(p.id) + "," +
                       std::to_string(p.block_index) + "," +
                       EnvelopeToCsv(p.cell) + "," + EnvelopeToCsv(p.mbr) +
                       "," + std::to_string(p.num_records) + "," +
                       std::to_string(p.num_bytes);
    if (any_source) line += "," + p.source_path;
    lines.push_back(std::move(line));
  }
  return lines;
}

Result<Partition> GlobalIndex::ParseLine(std::string_view line) {
  auto fields = SplitString(line, ',');
  // 12 fields is the original format; 13 adds the per-partition source
  // path of versioned datasets (possibly empty for "the data file").
  if (fields.size() != 12 && fields.size() != 13) {
    return Status::ParseError("bad partition line: '" + std::string(line) +
                              "'");
  }
  Partition p;
  if (fields.size() == 13) p.source_path = std::string(fields[12]);
  SHADOOP_ASSIGN_OR_RETURN(int64_t id, ParseInt64(fields[0]));
  SHADOOP_ASSIGN_OR_RETURN(int64_t block, ParseInt64(fields[1]));
  double coords[8];
  for (int i = 0; i < 8; ++i) {
    SHADOOP_ASSIGN_OR_RETURN(coords[i], ParseDouble(fields[2 + i]));
  }
  SHADOOP_ASSIGN_OR_RETURN(int64_t records, ParseInt64(fields[10]));
  SHADOOP_ASSIGN_OR_RETURN(int64_t bytes, ParseInt64(fields[11]));
  if (id < 0 || block < 0 || records < 0 || bytes < 0) {
    return Status::ParseError("negative id, block, record or byte count: '" +
                              std::string(line) + "'");
  }
  if (!IsFilterableBox(coords) || !IsFilterableBox(coords + 4)) {
    return Status::ParseError("cell or MBR neither a finite box nor empty: '" +
                              std::string(line) + "'");
  }
  p.id = static_cast<int>(id);
  p.block_index = static_cast<size_t>(block);
  p.cell = Envelope(coords[0], coords[1], coords[2], coords[3]);
  p.mbr = Envelope(coords[4], coords[5], coords[6], coords[7]);
  p.num_records = static_cast<size_t>(records);
  p.num_bytes = static_cast<size_t>(bytes);
  return p;
}

}  // namespace shadoop::index

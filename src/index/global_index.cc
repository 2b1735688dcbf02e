#include "index/global_index.h"

#include <bit>
#include <cstdint>

#include "common/string_util.h"
#include "geometry/wkt.h"
#include "simd/mbr_kernels.h"

namespace shadoop::index {

std::vector<std::pair<int, int>> OverlappingPartitionPairs(
    const GlobalIndex& a, const GlobalIndex& b) {
  // One batch sweep over b's MBR lanes per a-partition; hit order is
  // ascending, so the pair list is identical to the old nested loops.
  std::vector<std::pair<int, int>> pairs;
  for (const Partition& pa : a.partitions()) {
    for (int ib : b.OverlappingPartitions(pa.mbr)) {
      pairs.emplace_back(pa.id, ib);
    }
  }
  return pairs;
}

void GlobalIndex::BuildMbrLanes() {
  const size_t n = partitions_.size();
  mbr_min_x_.resize(n);
  mbr_min_y_.resize(n);
  mbr_max_x_.resize(n);
  mbr_max_y_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    mbr_min_x_[i] = partitions_[i].mbr.min_x();
    mbr_min_y_[i] = partitions_[i].mbr.min_y();
    mbr_max_x_[i] = partitions_[i].mbr.max_x();
    mbr_max_y_[i] = partitions_[i].mbr.max_y();
  }
}

Envelope GlobalIndex::Bounds() const {
  Envelope bounds;
  for (const Partition& p : partitions_) bounds.ExpandToInclude(p.mbr);
  return bounds;
}

std::vector<int> GlobalIndex::OverlappingPartitions(
    const Envelope& query) const {
  std::vector<int> ids;
  if (partitions_.empty() || query.IsEmpty()) return ids;
  const simd::BoxLanes lanes{mbr_min_x_.data(), mbr_min_y_.data(),
                             mbr_max_x_.data(), mbr_max_y_.data()};
  std::vector<uint64_t> bits(simd::BitmapWords(partitions_.size()));
  simd::IntersectBoxBitmap(lanes, partitions_.size(), query.min_x(),
                           query.min_y(), query.max_x(), query.max_y(),
                           bits.data());
  for (size_t w = 0; w < bits.size(); ++w) {
    uint64_t word = bits[w];
    while (word != 0) {
      const size_t i = w * 64 + static_cast<size_t>(std::countr_zero(word));
      word &= word - 1;
      ids.push_back(partitions_[i].id);
    }
  }
  return ids;
}

std::vector<double> GlobalIndex::PartitionDistances(const Point& p) const {
  std::vector<double> distances(partitions_.size());
  if (partitions_.empty()) return distances;
  const simd::BoxLanes lanes{mbr_min_x_.data(), mbr_min_y_.data(),
                             mbr_max_x_.data(), mbr_max_y_.data()};
  simd::BoxMinDistance(lanes, partitions_.size(), p.x, p.y,
                       distances.data());
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
  p.id = static_cast<int>(id);
  p.block_index = static_cast<size_t>(block);
  p.cell = Envelope(coords[0], coords[1], coords[2], coords[3]);
  p.mbr = Envelope(coords[4], coords[5], coords[6], coords[7]);
  p.num_records = static_cast<size_t>(records);
  p.num_bytes = static_cast<size_t>(bytes);
  return p;
}

}  // namespace shadoop::index

#include "index/partition.h"

#include "common/string_util.h"

namespace shadoop::index {

bool IsDisjointScheme(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kGrid:
    case PartitionScheme::kStrPlus:
    case PartitionScheme::kQuadTree:
    case PartitionScheme::kKdTree:
      return true;
    default:
      return false;
  }
}

const char* PartitionSchemeName(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kNone:
      return "none";
    case PartitionScheme::kGrid:
      return "grid";
    case PartitionScheme::kStr:
      return "str";
    case PartitionScheme::kStrPlus:
      return "str+";
    case PartitionScheme::kQuadTree:
      return "quadtree";
    case PartitionScheme::kKdTree:
      return "kdtree";
    case PartitionScheme::kZCurve:
      return "zcurve";
    case PartitionScheme::kHilbert:
      return "hilbert";
  }
  return "?";
}

Result<PartitionScheme> ParsePartitionScheme(const std::string& name) {
  const std::string upper = AsciiToUpper(name);
  if (upper == "NONE") return PartitionScheme::kNone;
  if (upper == "GRID") return PartitionScheme::kGrid;
  if (upper == "STR") return PartitionScheme::kStr;
  if (upper == "STR+" || upper == "STRPLUS") return PartitionScheme::kStrPlus;
  if (upper == "QUADTREE" || upper == "QUAD") return PartitionScheme::kQuadTree;
  if (upper == "KDTREE" || upper == "KD") return PartitionScheme::kKdTree;
  if (upper == "ZCURVE" || upper == "Z") return PartitionScheme::kZCurve;
  if (upper == "HILBERT") return PartitionScheme::kHilbert;
  return Status::InvalidArgument("unknown partition scheme: " + name);
}

}  // namespace shadoop::index

#include "core/farthest_pair_op.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/string_util.h"
#include "core/convex_hull_op.h"
#include "core/query_pipeline.h"
#include "geometry/convex_hull.h"
#include "geometry/farthest_pair.h"
#include "geometry/wkt.h"

namespace shadoop::core {
namespace {

using mapreduce::JobResult;
using mapreduce::MapContext;

/// Lower bound on the farthest real pair drawn from two *minimal* MBRs:
/// some point touches each MBR side, so the vertical separation of the
/// two farthest horizontal sides (and the horizontal separation of the
/// two farthest vertical sides) is always realized.
double PairLowerBound(const Envelope& a, const Envelope& b) {
  const double dy =
      std::max(std::abs(a.max_y() - b.min_y()), std::abs(b.max_y() - a.min_y()));
  const double dx =
      std::max(std::abs(a.max_x() - b.min_x()), std::abs(b.max_x() - a.min_x()));
  return std::max(dx, dy);
}

/// A single partition also guarantees a pair: points touch its left and
/// right (and bottom and top) edges.
double SelfLowerBound(const Envelope& a) {
  return std::max(a.Width(), a.Height());
}

/// Runs over both split kinds of the farthest-pair job (pair splits and
/// single-partition self splits), so it ignores the split meta entirely.
class FarthestPairMapper : public PartitionMapper {
 public:
  FarthestPairMapper()
      : PartitionMapper(index::ShapeType::kPoint, /*parse_extent=*/false) {}

 protected:
  void Process(const SplitExtent& extent, SpatialRecordReader& reader,
               MapContext& ctx) override {
    (void)extent;
    std::vector<Point> points = reader.Points();
    const size_t n = points.size();
    ctx.ChargeCpu(static_cast<uint64_t>(
        n > 1 ? n * std::log2(static_cast<double>(n)) * 20 : n));
    const PointPair pair = FarthestPair(points);
    if (pair.distance > 0) {
      ctx.Emit("F", FormatDouble(pair.distance) + ";" +
                        PointToCsv(pair.first) + ";" +
                        PointToCsv(pair.second));
    }
  }
};

class MaxPairReducer : public mapreduce::Reducer {
 public:
  void Reduce(std::string_view key, std::span<const std::string_view> values,
              mapreduce::ReduceContext& ctx) override {
    (void)key;
    double best = -1.0;
    std::string_view best_value;
    for (std::string_view value : values) {
      auto fields = SplitString(value, ';');
      if (fields.empty()) continue;
      auto dist = ParseDouble(fields[0]);
      if (dist.ok() && dist.value() > best) {
        best = dist.value();
        best_value = value;
      }
    }
    if (best >= 0) ctx.Write(std::string(best_value));
  }
};

Result<PointPair> ParsePairLine(const std::string& line) {
  auto fields = SplitString(line, ';');
  if (fields.size() != 3) {
    return Status::Internal("bad farthest-pair output: " + line);
  }
  PointPair pair;
  SHADOOP_ASSIGN_OR_RETURN(pair.distance, ParseDouble(fields[0]));
  SHADOOP_ASSIGN_OR_RETURN(pair.first, ParsePointCsv(fields[1]));
  SHADOOP_ASSIGN_OR_RETURN(pair.second, ParsePointCsv(fields[2]));
  return pair;
}

}  // namespace

std::vector<std::pair<int, int>> FarthestPairPartitionFilter(
    const index::GlobalIndex& gi) {
  const auto& parts = gi.partitions();
  // Pass 1: greatest lower bound over all pairs (including self pairs).
  double glb = 0.0;
  for (size_t i = 0; i < parts.size(); ++i) {
    glb = std::max(glb, SelfLowerBound(parts[i].mbr));
    for (size_t j = i + 1; j < parts.size(); ++j) {
      glb = std::max(glb, PairLowerBound(parts[i].mbr, parts[j].mbr));
    }
  }
  // Pass 2: keep pairs whose upper bound can reach the GLB.
  std::vector<std::pair<int, int>> selected;
  for (size_t i = 0; i < parts.size(); ++i) {
    for (size_t j = i; j < parts.size(); ++j) {
      if (parts[i].mbr.MaxDistance(parts[j].mbr) >= glb) {
        selected.emplace_back(parts[i].id, parts[j].id);
      }
    }
  }
  return selected;
}

Result<PointPair> FarthestPairHadoop(mapreduce::JobRunner* runner,
                                     const std::string& path,
                                     OpStats* stats) {
  SHADOOP_ASSIGN_OR_RETURN(std::vector<Point> hull,
                           ConvexHullHadoop(runner, path, stats));
  // The hull is tiny (O(log n) expected); the calipers run on the master.
  return FarthestPairOnHull(hull);
}

Result<PointPair> FarthestPairSpatial(mapreduce::JobRunner* runner,
                                      const index::SpatialFileInfo& file,
                                      OpStats* stats) {
  std::vector<std::pair<int, int>> pairs =
      FarthestPairPartitionFilter(file.global_index);
  if (pairs.empty()) {
    return Status::InvalidArgument("farthest pair over empty index");
  }
  if (stats != nullptr) {
    const size_t n = file.global_index.NumPartitions();
    stats->counters.Increment("farthest_pair.pairs_processed",
                              static_cast<int64_t>(pairs.size()));
    stats->counters.Increment(
        "farthest_pair.pairs_pruned",
        static_cast<int64_t>(n * (n + 1) / 2 - pairs.size()));
  }

  // Self pairs read one block; cross pairs read two.
  std::vector<std::pair<int, int>> cross;
  std::vector<int> self_ids;
  for (const auto& [a, b] : pairs) {
    if (a == b) {
      self_ids.push_back(a);
    } else {
      cross.emplace_back(a, b);
    }
  }
  SHADOOP_ASSIGN_OR_RETURN(
      JobResult result,
      SpatialJobBuilder(runner)
          .Name("farthest-pair")
          .ScanPartitionPairs(file, file, cross)
          .ScanIndexed(file,
                       [&self_ids](const index::GlobalIndex&) {
                         return self_ids;
                       })
          .Map([]() { return std::make_unique<FarthestPairMapper>(); })
          .Reduce([]() { return std::make_unique<MaxPairReducer>(); })
          .Run(stats));
  if (result.output.empty()) {
    return Status::InvalidArgument("farthest pair needs at least 2 points");
  }
  return ParsePairLine(result.output.front());
}

}  // namespace shadoop::core

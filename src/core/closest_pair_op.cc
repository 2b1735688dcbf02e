#include "core/closest_pair_op.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/string_util.h"
#include "core/query_pipeline.h"
#include "geometry/wkt.h"

namespace shadoop::core {
namespace {

using mapreduce::JobResult;
using mapreduce::MapContext;

double DistanceToBoundary(const Point& p, const Envelope& cell) {
  return std::min({p.x - cell.min_x(), cell.max_x() - p.x,
                   p.y - cell.min_y(), cell.max_y() - p.y});
}

std::string EncodePair(const PointPair& pair) {
  return FormatDouble(pair.distance) + ";" + PointToCsv(pair.first) + ";" +
         PointToCsv(pair.second);
}

Result<PointPair> DecodePair(std::string_view text) {
  auto fields = SplitString(text, ';');
  if (fields.size() != 3) {
    return Status::ParseError("bad pair encoding: '" + std::string(text) +
                              "'");
  }
  PointPair pair;
  SHADOOP_ASSIGN_OR_RETURN(pair.distance, ParseDouble(fields[0]));
  SHADOOP_ASSIGN_OR_RETURN(pair.first, ParsePointCsv(fields[1]));
  SHADOOP_ASSIGN_OR_RETURN(pair.second, ParsePointCsv(fields[2]));
  return pair;
}

/// Emits the local closest pair under key "L" and the boundary-buffer
/// candidate points under key "P".
class ClosestPairMapper : public PartitionMapper {
 public:
  ClosestPairMapper() : PartitionMapper(index::ShapeType::kPoint) {}

 protected:
  void Process(const SplitExtent& extent, SpatialRecordReader& reader,
               MapContext& ctx) override {
    std::vector<Point> points = reader.Points();
    const size_t n = points.size();
    ctx.ChargeCpu(static_cast<uint64_t>(
        n > 1 ? n * std::log2(static_cast<double>(n)) * 40 : n));
    const PointPair local = ClosestPair(points);
    if (local.distance < std::numeric_limits<double>::infinity()) {
      ctx.Emit("L", EncodePair(local));
    }
    // Buffer pruning: only points within δ of the cell boundary can form
    // a closer cross-cell pair. (With one point, δ is infinite and the
    // point survives, as it must.)
    size_t emitted = 0;
    for (const Point& p : points) {
      if (DistanceToBoundary(p, extent.cell) < local.distance) {
        ctx.Emit("P", PointToCsv(p));
        ++emitted;
      }
    }
    ctx.counters().Increment("closest_pair.candidates",
                             static_cast<int64_t>(emitted));
    ctx.counters().Increment("closest_pair.pruned",
                             static_cast<int64_t>(n - emitted));
  }
};

/// Takes the minimum of the local pairs ("L") and the closest pair of the
/// candidate set ("P"); writes the winner in Finish().
class ClosestPairReducer : public mapreduce::Reducer {
 public:
  ClosestPairReducer() {
    best_.distance = std::numeric_limits<double>::infinity();
  }

  void Reduce(std::string_view key, std::span<const std::string_view> values,
              mapreduce::ReduceContext& ctx) override {
    if (key == "L") {
      for (std::string_view value : values) {
        auto pair = DecodePair(value);
        if (!pair.ok()) {
          ctx.Fail(pair.status());
          return;
        }
        if (pair.value().distance < best_.distance) best_ = pair.value();
      }
      return;
    }
    // Key "P": candidate points. Disjoint cells assign each point to one
    // cell, so the candidate set has no artificial duplicates.
    std::vector<Point> points;
    points.reserve(values.size());
    for (std::string_view value : values) {
      auto p = ParsePointCsv(value);
      if (p.ok()) points.push_back(p.value());
    }
    const size_t n = points.size();
    ctx.ChargeCpu(static_cast<uint64_t>(
        n > 1 ? n * std::log2(static_cast<double>(n)) * 40 : n));
    const PointPair cross = ClosestPair(std::move(points));
    if (cross.distance < best_.distance) best_ = cross;
  }

  void Finish(mapreduce::ReduceContext& ctx) override {
    if (best_.distance < std::numeric_limits<double>::infinity()) {
      ctx.Write(EncodePair(best_));
    }
  }

 private:
  PointPair best_;
};

}  // namespace

Result<PointPair> ClosestPairSpatial(mapreduce::JobRunner* runner,
                                     const index::SpatialFileInfo& file,
                                     OpStats* stats) {
  if (!file.global_index.IsDisjoint()) {
    return Status::InvalidArgument(
        "closest pair requires a disjoint spatial index (grid, str+, "
        "quadtree or kdtree); got " +
        std::string(index::PartitionSchemeName(file.global_index.scheme())));
  }
  SHADOOP_ASSIGN_OR_RETURN(
      JobResult result,
      SpatialJobBuilder(runner)
          .Name("closest-pair")
          .ScanIndexed(file)
          .Map([]() { return std::make_unique<ClosestPairMapper>(); })
          .Reduce([]() { return std::make_unique<ClosestPairReducer>(); })
          .Run(stats));
  if (result.output.empty()) {
    return Status::InvalidArgument("closest pair needs at least 2 points");
  }
  return DecodePair(result.output.front());
}

}  // namespace shadoop::core

#include "core/union_op.h"

#include <cmath>
#include <memory>

#include "common/string_util.h"
#include "core/query_pipeline.h"
#include "geometry/polygon_clip.h"
#include "geometry/polygon_union.h"
#include "geometry/wkt.h"

namespace shadoop::core {
namespace {

using mapreduce::JobResult;
using mapreduce::MapContext;

uint64_t UnionCpuOps(const std::vector<Polygon>& polygons) {
  uint64_t edges = 0;
  for (const Polygon& p : polygons) edges += p.NumVertices();
  // The overlay is quadratic in edges within a group in the worst case.
  return edges * edges / 16 + edges * 100;
}

/// Hadoop map side: forwards polygons. With random partitioning the local
/// union step almost never merges anything (adjacent polygons land on
/// different machines), so forwarding matches what the real local step
/// achieves — and the single reducer becomes the bottleneck, which is the
/// behaviour the experiment demonstrates.
class HadoopUnionMapper : public mapreduce::Mapper {
 public:
  void Map(std::string_view record, MapContext& ctx) override {
    if (index::IsMetadataRecord(record)) return;
    ctx.Emit("U", record);
  }
};

class HadoopUnionReducer : public mapreduce::Reducer {
 public:
  void Reduce(std::string_view key, std::span<const std::string_view> values,
              mapreduce::ReduceContext& ctx) override {
    (void)key;
    std::vector<Polygon> polygons;
    polygons.reserve(values.size());
    for (std::string_view value : values) {
      auto poly = index::RecordPolygon(value);
      if (poly.ok()) {
        polygons.push_back(std::move(poly).value());
      } else {
        ctx.counters().Increment("union.bad_records");
      }
    }
    ctx.ChargeCpu(UnionCpuOps(polygons));
    for (const Segment& s : UnionBoundary(polygons)) {
      ctx.Write(SegmentToCsv(s));
    }
  }
};

/// Enhanced union: local union boundary clipped to the partition cell;
/// map-only.
class EnhancedUnionMapper : public PartitionMapper {
 public:
  EnhancedUnionMapper() : PartitionMapper(index::ShapeType::kPolygon) {}

 protected:
  void Process(const SplitExtent& extent, SpatialRecordReader& reader,
               MapContext& ctx) override {
    std::vector<Polygon> polygons = reader.Polygons();
    ctx.ChargeCpu(UnionCpuOps(polygons));
    size_t kept = 0;
    for (const Segment& s : UnionBoundary(polygons)) {
      // Pruning step: keep only the portion inside this cell. Every
      // boundary segment is inside exactly one cell (cells tile space),
      // so the global output is the concatenation of all map outputs.
      if (auto clipped = ClipSegmentToBox(s, extent.cell)) {
        ctx.WriteOutput(SegmentToCsv(*clipped));
        ++kept;
      }
    }
    ctx.counters().Increment("union.segments", static_cast<int64_t>(kept));
    ctx.counters().Increment("union.bad_records",
                             static_cast<int64_t>(reader.bad_records()));
  }
};

Result<std::vector<Segment>> ParseSegments(
    const std::vector<std::string>& lines) {
  std::vector<Segment> segments;
  segments.reserve(lines.size());
  for (const std::string& line : lines) {
    SHADOOP_ASSIGN_OR_RETURN(Segment s, ParseSegmentCsv(line));
    segments.push_back(s);
  }
  return segments;
}

}  // namespace

std::string SegmentToCsv(const Segment& s) {
  return FormatDouble(s.a.x) + "," + FormatDouble(s.a.y) + "," +
         FormatDouble(s.b.x) + "," + FormatDouble(s.b.y);
}

Result<Segment> ParseSegmentCsv(std::string_view text) {
  auto fields = SplitString(text, ',');
  if (fields.size() != 4) {
    return Status::ParseError("bad segment record: '" + std::string(text) +
                              "'");
  }
  double v[4];
  for (int i = 0; i < 4; ++i) {
    SHADOOP_ASSIGN_OR_RETURN(v[i], ParseDouble(fields[i]));
  }
  return Segment(Point(v[0], v[1]), Point(v[2], v[3]));
}

Result<std::vector<Segment>> UnionHadoop(mapreduce::JobRunner* runner,
                                         const std::string& path,
                                         OpStats* stats) {
  SHADOOP_ASSIGN_OR_RETURN(
      JobResult result,
      SpatialJobBuilder(runner)
          .Name("union-hadoop")
          .ScanFile(path)
          .Map([]() { return std::make_unique<HadoopUnionMapper>(); })
          .Reduce([]() { return std::make_unique<HadoopUnionReducer>(); })
          .Run(stats));
  return ParseSegments(result.output);
}

Result<std::vector<Segment>> UnionSpatialEnhanced(
    mapreduce::JobRunner* runner, const index::SpatialFileInfo& file,
    OpStats* stats) {
  if (!file.global_index.IsDisjoint()) {
    return Status::InvalidArgument(
        "enhanced union requires a disjoint replicating index; got " +
        std::string(index::PartitionSchemeName(file.global_index.scheme())));
  }
  SHADOOP_ASSIGN_OR_RETURN(
      JobResult result,
      SpatialJobBuilder(runner)
          .Name("union-enhanced")
          .ScanIndexed(file)
          .Map([]() { return std::make_unique<EnhancedUnionMapper>(); })
          .Run(stats));
  return ParseSegments(result.output);
}

}  // namespace shadoop::core

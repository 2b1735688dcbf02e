#include "index/record_shape.h"

#include <atomic>
#include <cmath>
#include <cstddef>
#include <span>

#include "common/string_util.h"
#include "geometry/wkt.h"
#include "hdfs/block_arena.h"

namespace shadoop::index {
namespace {

// Every pool thread parses, so the parse count is sharded: a single
// shared counter would move its cache line between cores on every parse.
// Each thread takes a shard on first use; threads past the shard count
// share one, which the atomic add keeps exact.
constexpr size_t kParseCountShards = 64;

struct alignas(64) ParseCountShard {
  std::atomic<uint64_t> count{0};
};

ParseCountShard g_parse_counts[kParseCountShards];
std::atomic<size_t> g_next_parse_shard{0};

ParseCountShard& TakeParseCountShard() {
  const size_t ticket =
      g_next_parse_shard.fetch_add(1, std::memory_order_relaxed);
  return g_parse_counts[ticket % kParseCountShards];
}

void CountGeometryParse() {
  thread_local ParseCountShard& shard = TakeParseCountShard();
  shard.count.fetch_add(1, std::memory_order_relaxed);
}

// A record with an `inf` or `nan` coordinate is a bad record, like one
// that does not parse: its envelope would stretch a partition's MBR, or a
// grid's cells, to infinity, or compare false against every window.
bool AllFinite(std::span<const Point> points) {
  for (const Point& p : points) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) return false;
  }
  return true;
}

Status NonFiniteError() {
  return Status::ParseError("non-finite coordinate in record");
}

Result<Point> FinitePoint(std::string_view geom) {
  SHADOOP_ASSIGN_OR_RETURN(Point p, ParsePointCsv(geom));
  if (!AllFinite({&p, 1})) return NonFiniteError();
  return p;
}

Result<Envelope> FiniteRectangle(std::string_view geom) {
  SHADOOP_ASSIGN_OR_RETURN(Envelope env, ParseEnvelopeCsv(geom));
  const Point corners[] = {env.BottomLeft(), env.TopRight()};
  if (!AllFinite(corners)) return NonFiniteError();
  return env;
}

Result<Polygon> FinitePolygon(std::string_view geom) {
  SHADOOP_ASSIGN_OR_RETURN(Polygon poly, ParsePolygonWkt(geom));
  if (!AllFinite(poly.ring())) return NonFiniteError();
  return poly;
}

}  // namespace

uint64_t GeometryParseCount() {
  uint64_t total = 0;
  for (const ParseCountShard& shard : g_parse_counts) {
    total += shard.count.load(std::memory_order_relaxed);
  }
  return total;
}

void ResetGeometryParseCount() {
  for (ParseCountShard& shard : g_parse_counts) {
    shard.count.store(0, std::memory_order_relaxed);
  }
}

const char* ShapeTypeName(ShapeType type) {
  switch (type) {
    case ShapeType::kPoint:
      return "point";
    case ShapeType::kRectangle:
      return "rectangle";
    case ShapeType::kPolygon:
      return "polygon";
  }
  return "?";
}

Result<ShapeType> ParseShapeType(const std::string& name) {
  const std::string upper = AsciiToUpper(name);
  if (upper == "POINT") return ShapeType::kPoint;
  if (upper == "RECTANGLE" || upper == "RECT") return ShapeType::kRectangle;
  if (upper == "POLYGON") return ShapeType::kPolygon;
  return Status::InvalidArgument("unknown shape type: " + name);
}

std::string_view GeometryField(std::string_view record) {
  const size_t tab = record.find('\t');
  return tab == std::string_view::npos ? record : record.substr(0, tab);
}

bool IsMetadataRecord(std::string_view record) {
  return hdfs::IsMetadataLine(record);
}

std::string EncodeLocalIndexHeader(const std::vector<Envelope>& envelopes) {
  std::string header = "#lidx ";
  for (size_t i = 0; i < envelopes.size(); ++i) {
    if (i > 0) header.push_back('|');
    header += EnvelopeToCsv(envelopes[i]);
  }
  return header;
}

Result<std::vector<Envelope>> DecodeLocalIndexHeader(
    std::string_view record) {
  constexpr std::string_view kPrefix = "#lidx ";
  if (record.substr(0, kPrefix.size()) != kPrefix) {
    return Status::ParseError("not a local-index header");
  }
  std::vector<Envelope> envelopes;
  FieldCursor entries(record.substr(kPrefix.size()), '|');
  std::string_view field;
  while (entries.Next(&field)) {
    if (field.empty()) continue;
    // Slots for records that failed to parse at build time are stored as
    // the empty envelope ("inf,inf,-inf,-inf"), which the strict
    // rectangle parser rejects — decode the coordinates directly. Fields
    // are scanned in place: this decode runs once per partition per query,
    // over every record's envelope.
    FieldCursor coords(field, ',');
    std::string_view c[4];
    std::string_view extra;
    if (!coords.Next(&c[0]) || !coords.Next(&c[1]) || !coords.Next(&c[2]) ||
        !coords.Next(&c[3]) || coords.Next(&extra)) {
      return Status::ParseError("bad local-index entry: '" +
                                std::string(field) + "'");
    }
    double v[4];
    for (int i = 0; i < 4; ++i) {
      SHADOOP_ASSIGN_OR_RETURN(v[i], ParseDouble(c[i]));
    }
    envelopes.push_back(v[2] < v[0] || v[3] < v[1]
                            ? Envelope()
                            : Envelope(v[0], v[1], v[2], v[3]));
  }
  return envelopes;
}

Result<Envelope> RecordEnvelope(ShapeType type, std::string_view record) {
  CountGeometryParse();
  const std::string_view geom = GeometryField(record);
  switch (type) {
    case ShapeType::kPoint: {
      SHADOOP_ASSIGN_OR_RETURN(Point p, FinitePoint(geom));
      return Envelope::FromPoint(p);
    }
    case ShapeType::kRectangle:
      return FiniteRectangle(geom);
    case ShapeType::kPolygon: {
      SHADOOP_ASSIGN_OR_RETURN(Polygon poly, FinitePolygon(geom));
      return poly.Bounds();
    }
  }
  return Status::InvalidArgument("unknown shape type");
}

Result<Point> RecordPoint(std::string_view record) {
  CountGeometryParse();
  return FinitePoint(GeometryField(record));
}

Result<Polygon> RecordPolygon(std::string_view record) {
  CountGeometryParse();
  return FinitePolygon(GeometryField(record));
}

Status AppendRecordPolygon(std::string_view record, std::vector<Point>* ring) {
  CountGeometryParse();
  const size_t old_size = ring->size();
  SHADOOP_RETURN_NOT_OK(AppendPolygonWkt(GeometryField(record), ring));
  if (!AllFinite(std::span<const Point>(*ring).subspan(old_size))) {
    ring->resize(old_size);
    return NonFiniteError();
  }
  return Status::OK();
}

Result<Envelope> RecordRectangle(std::string_view record) {
  CountGeometryParse();
  return FiniteRectangle(GeometryField(record));
}

}  // namespace shadoop::index

#ifndef SHADOOP_INDEX_RECORD_SHAPE_H_
#define SHADOOP_INDEX_RECORD_SHAPE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "geometry/envelope.h"
#include "geometry/point.h"
#include "geometry/polygon.h"

namespace shadoop::index {

/// Geometry encodings of the text record formats stored in HDFS files.
/// A record line is "<geometry>" or "<geometry>\t<attributes>"; only the
/// geometry part is interpreted by the spatial layers.
///   kPoint:     "x,y"
///   kRectangle: "x1,y1,x2,y2"
///   kPolygon:   "POLYGON ((x y, ...))"
enum class ShapeType { kPoint, kRectangle, kPolygon };

const char* ShapeTypeName(ShapeType type);
Result<ShapeType> ParseShapeType(const std::string& name);

/// The geometry portion of a record line (text before the first tab).
std::string_view GeometryField(std::string_view record);

/// True for in-band metadata records ('#'-prefixed lines,
/// hdfs::IsMetadataLine), e.g. the persisted local-index header the index
/// builder can place at the start of each partition block. Map functions
/// skip these.
bool IsMetadataRecord(std::string_view record);

/// Local-index header codec: "#lidx <csv>|<csv>|..." with one envelope
/// per data record of the block, in record order. A reader that finds the
/// header can bulk-load the partition's R-tree without parsing any
/// geometry.
std::string EncodeLocalIndexHeader(const std::vector<Envelope>& envelopes);
Result<std::vector<Envelope>> DecodeLocalIndexHeader(std::string_view record);

/// Minimum bounding rectangle of a record's geometry. Points yield a
/// degenerate (zero-area) envelope.
Result<Envelope> RecordEnvelope(ShapeType type, std::string_view record);

/// Parses the geometry of a point record.
Result<Point> RecordPoint(std::string_view record);

/// Parses the geometry of a polygon record.
Result<Polygon> RecordPolygon(std::string_view record);

/// The append form of RecordPolygon (AppendPolygonWkt): appends the ring
/// to `ring`, or leaves `ring` as it was and returns the error.
Status AppendRecordPolygon(std::string_view record, std::vector<Point>* ring);

/// Parses the geometry of a rectangle record.
Result<Envelope> RecordRectangle(std::string_view record);

/// Process-wide count of geometry parses (every Record* call above adds
/// one). Deliberately NOT a MapReduce counter: job counters feed the
/// golden parity suite, while this is pure observability — the bench
/// harness snapshots it around a job to prove the parse-once invariant
/// (parses <= records processed). The count is kept in per-thread shards
/// and is exact once the parsing threads are quiescent.
uint64_t GeometryParseCount();
void ResetGeometryParseCount();

}  // namespace shadoop::index

#endif  // SHADOOP_INDEX_RECORD_SHAPE_H_

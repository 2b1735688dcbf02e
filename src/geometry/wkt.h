#ifndef SHADOOP_GEOMETRY_WKT_H_
#define SHADOOP_GEOMETRY_WKT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "geometry/envelope.h"
#include "geometry/point.h"
#include "geometry/polygon.h"

namespace shadoop {

/// Well-Known-Text serialization for the geometry types the system stores
/// in its text record format (one geometry per HDFS record line).
///
/// Supported forms:
///   POINT (x y)
///   LINESTRING (x y, x y, ...)
///   POLYGON ((x y, x y, ...))        -- single ring; holes are rejected
///
/// Parsing is whitespace-tolerant and case-insensitive on keywords.
std::string ToWkt(const Point& p);
std::string ToWkt(const Polygon& poly);
std::string LineStringToWkt(const std::vector<Point>& points);

Result<Point> ParsePointWkt(std::string_view text);
Result<Polygon> ParsePolygonWkt(std::string_view text);
/// ParsePolygonWkt without the Polygon: appends the ring's vertices,
/// without the repeated closing vertex, to `ring`, which may already hold
/// other rings. On failure `ring` is truncated back to its size on entry.
Status AppendPolygonWkt(std::string_view text, std::vector<Point>* ring);
Result<std::vector<Point>> ParseLineStringWkt(std::string_view text);

/// Compact CSV forms used by the HDFS record layer:
///   point:     "x,y"
///   rectangle: "x1,y1,x2,y2"
std::string PointToCsv(const Point& p);
std::string EnvelopeToCsv(const Envelope& e);
Result<Point> ParsePointCsv(std::string_view text);
Result<Envelope> ParseEnvelopeCsv(std::string_view text);

}  // namespace shadoop

#endif  // SHADOOP_GEOMETRY_WKT_H_

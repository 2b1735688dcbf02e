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
/// The one supported form is POLYGON ((x y, x y, ...)): a single ring;
/// holes are rejected. Parsing is whitespace-tolerant and
/// case-insensitive on the keyword.
std::string ToWkt(const Polygon& poly);

Result<Polygon> ParsePolygonWkt(std::string_view text);
/// ParsePolygonWkt without the Polygon: appends the ring's vertices,
/// without the repeated closing vertex, to `ring`, which may already hold
/// other rings. On failure `ring` is truncated back to its size on entry.
Status AppendPolygonWkt(std::string_view text, std::vector<Point>* ring);

/// Compact CSV forms used by the HDFS record layer:
///   point:     "x,y"
///   rectangle: "x1,y1,x2,y2"
std::string PointToCsv(const Point& p);
std::string EnvelopeToCsv(const Envelope& e);
Result<Point> ParsePointCsv(std::string_view text);
Result<Envelope> ParseEnvelopeCsv(std::string_view text);

}  // namespace shadoop

#endif  // SHADOOP_GEOMETRY_WKT_H_

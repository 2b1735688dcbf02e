#include "geometry/wkt.h"

#include "common/string_util.h"

namespace shadoop {
namespace {

/// Consumes an expected keyword (case-insensitive) and following blanks.
Status ExpectKeyword(std::string_view& text, std::string_view keyword) {
  text = StripWhitespace(text);
  if (!StartsWithIgnoreCase(text, keyword)) {
    return Status::ParseError("expected '" + std::string(keyword) +
                              "' in WKT: '" + std::string(text) + "'");
  }
  text.remove_prefix(keyword.size());
  text = StripWhitespace(text);
  return Status::OK();
}

Status ExpectChar(std::string_view& text, char c) {
  text = StripWhitespace(text);
  if (text.empty() || text.front() != c) {
    return Status::ParseError(std::string("expected '") + c + "' in WKT");
  }
  text.remove_prefix(1);
  text = StripWhitespace(text);
  return Status::OK();
}

/// The WKT scanner: appends "x y" coordinate pairs separated by commas,
/// until the closing ')', to `points`. Each pair is scanned once, in
/// place: its tokens are the runs of non-space bytes before the pair's ','
/// or ')', and the numbers go to ParseDouble (std::from_chars). A
/// malformed pair reports the first failing check in the order
/// unterminated list, token count, x, y, and leaves the pairs before it
/// appended. This runs once per vertex of every polygon record on the
/// join hot path.
Status AppendCoordinateList(std::string_view& text,
                            std::vector<Point>* points) {
  const char* p = text.data();
  const char* const end = p + text.size();
  for (;;) {
    while (p != end && IsAsciiSpace(*p)) ++p;
    const char* const pair = p;
    std::string_view tokens[2];
    int count = 0;
    while (p != end && *p != ',' && *p != ')') {
      if (IsAsciiSpace(*p)) {
        ++p;
        continue;
      }
      const char* const token = p;
      while (p != end && *p != ',' && *p != ')' && !IsAsciiSpace(*p)) ++p;
      if (count < 2) tokens[count] = std::string_view(token, p - token);
      ++count;
    }
    if (p == end) {
      return Status::ParseError("unterminated coordinate list in WKT");
    }
    if (count != 2) {
      return Status::ParseError("expected 'x y' coordinate in WKT, got '" +
                                std::string(pair, p) + "'");
    }
    SHADOOP_ASSIGN_OR_RETURN(double x, ParseDouble(tokens[0]));
    SHADOOP_ASSIGN_OR_RETURN(double y, ParseDouble(tokens[1]));
    points->emplace_back(x, y);
    if (*p++ == ')') break;
  }
  text = std::string_view(p, end - p);
  return Status::OK();
}

Result<std::vector<Point>> ParseCoordinateList(std::string_view& text) {
  std::vector<Point> points;
  SHADOOP_RETURN_NOT_OK(AppendCoordinateList(text, &points));
  return points;
}

/// AppendPolygonWkt's checks, in order; on failure the caller truncates
/// what was appended.
Status AppendPolygonRing(std::string_view text, std::vector<Point>* ring) {
  const size_t start = ring->size();
  SHADOOP_RETURN_NOT_OK(ExpectKeyword(text, "POLYGON"));
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, '('));
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, '('));
  SHADOOP_RETURN_NOT_OK(AppendCoordinateList(text, ring));
  text = StripWhitespace(text);
  if (!text.empty() && text.front() == ',') {
    return Status::ParseError("polygons with holes are not supported");
  }
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, ')'));
  if (ring->size() - start >= 2 && (*ring)[start] == ring->back()) {
    ring->pop_back();
  }
  if (ring->size() - start < 3) {
    return Status::ParseError("POLYGON ring needs at least 3 distinct points");
  }
  return Status::OK();
}

std::string CoordinateListToString(const std::vector<Point>& points) {
  std::string out;
  for (size_t i = 0; i < points.size(); ++i) {
    if (i > 0) out += ", ";
    out += FormatDouble(points[i].x);
    out += " ";
    out += FormatDouble(points[i].y);
  }
  return out;
}

}  // namespace

std::string ToWkt(const Point& p) {
  return "POINT (" + FormatDouble(p.x) + " " + FormatDouble(p.y) + ")";
}

std::string ToWkt(const Polygon& poly) {
  if (poly.IsEmpty()) return "POLYGON EMPTY";
  // WKT rings repeat the first vertex at the end.
  std::vector<Point> closed = poly.ring();
  closed.push_back(closed.front());
  return "POLYGON ((" + CoordinateListToString(closed) + "))";
}

std::string LineStringToWkt(const std::vector<Point>& points) {
  return "LINESTRING (" + CoordinateListToString(points) + ")";
}

Result<Point> ParsePointWkt(std::string_view text) {
  SHADOOP_RETURN_NOT_OK(ExpectKeyword(text, "POINT"));
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, '('));
  SHADOOP_ASSIGN_OR_RETURN(std::vector<Point> pts, ParseCoordinateList(text));
  if (pts.size() != 1) {
    return Status::ParseError("POINT must contain exactly one coordinate");
  }
  return pts.front();
}

Status AppendPolygonWkt(std::string_view text, std::vector<Point>* ring) {
  const size_t start = ring->size();
  Status status = AppendPolygonRing(text, ring);
  if (!status.ok()) ring->resize(start);
  return status;
}

Result<Polygon> ParsePolygonWkt(std::string_view text) {
  std::vector<Point> ring;
  SHADOOP_RETURN_NOT_OK(AppendPolygonWkt(text, &ring));
  return Polygon(std::move(ring));
}

Result<std::vector<Point>> ParseLineStringWkt(std::string_view text) {
  SHADOOP_RETURN_NOT_OK(ExpectKeyword(text, "LINESTRING"));
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, '('));
  SHADOOP_ASSIGN_OR_RETURN(std::vector<Point> pts, ParseCoordinateList(text));
  if (pts.size() < 2) {
    return Status::ParseError("LINESTRING needs at least 2 points");
  }
  return pts;
}

std::string PointToCsv(const Point& p) {
  return FormatDouble(p.x) + "," + FormatDouble(p.y);
}

std::string EnvelopeToCsv(const Envelope& e) {
  return FormatDouble(e.min_x()) + "," + FormatDouble(e.min_y()) + "," +
         FormatDouble(e.max_x()) + "," + FormatDouble(e.max_y());
}

Result<Point> ParsePointCsv(std::string_view text) {
  FieldCursor fields(StripWhitespace(text), ',');
  std::string_view fx;
  std::string_view fy;
  if (!fields.Next(&fx) || !fields.Next(&fy)) {
    return Status::ParseError("point record needs 'x,y': '" +
                              std::string(text) + "'");
  }
  SHADOOP_ASSIGN_OR_RETURN(double x, ParseDouble(fx));
  SHADOOP_ASSIGN_OR_RETURN(double y, ParseDouble(fy));
  return Point(x, y);
}

Result<Envelope> ParseEnvelopeCsv(std::string_view text) {
  FieldCursor fields(StripWhitespace(text), ',');
  std::string_view f[4];
  if (!fields.Next(&f[0]) || !fields.Next(&f[1]) || !fields.Next(&f[2]) ||
      !fields.Next(&f[3])) {
    return Status::ParseError("rectangle record needs 'x1,y1,x2,y2': '" +
                              std::string(text) + "'");
  }
  SHADOOP_ASSIGN_OR_RETURN(double x1, ParseDouble(f[0]));
  SHADOOP_ASSIGN_OR_RETURN(double y1, ParseDouble(f[1]));
  SHADOOP_ASSIGN_OR_RETURN(double x2, ParseDouble(f[2]));
  SHADOOP_ASSIGN_OR_RETURN(double y2, ParseDouble(f[3]));
  if (x2 < x1 || y2 < y1) {
    return Status::ParseError("rectangle with inverted bounds: '" +
                              std::string(text) + "'");
  }
  return Envelope(x1, y1, x2, y2);
}

}  // namespace shadoop

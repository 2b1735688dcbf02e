#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "geometry/envelope.h"
#include "geometry/point.h"
#include "geometry/polygon.h"
#include "geometry/polygon_clip.h"
#include "geometry/segment.h"
#include "geometry/simplify.h"
#include "geometry/wkt.h"
#include "simd/mbr_kernels.h"

namespace shadoop {
namespace {

TEST(PointTest, OrderingAndDistance) {
  EXPECT_LT(Point(1, 5), Point(2, 0));
  EXPECT_LT(Point(1, 1), Point(1, 2));
  EXPECT_DOUBLE_EQ(Distance(Point(0, 0), Point(3, 4)), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(Point(1, 1), Point(2, 2)), 2.0);
}

TEST(PointTest, CrossProductOrientation) {
  EXPECT_GT(Cross(Point(0, 0), Point(1, 0), Point(1, 1)), 0);  // CCW.
  EXPECT_LT(Cross(Point(0, 0), Point(1, 0), Point(1, -1)), 0);  // CW.
  EXPECT_EQ(Cross(Point(0, 0), Point(1, 1), Point(2, 2)), 0);  // Collinear.
}

TEST(EnvelopeTest, EmptyBehaviour) {
  Envelope e;
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_EQ(e.Area(), 0.0);
  EXPECT_FALSE(e.Intersects(Envelope(0, 0, 1, 1)));
  e.ExpandToInclude(Point(2, 3));
  EXPECT_FALSE(e.IsEmpty());
  EXPECT_EQ(e, Envelope(2, 3, 2, 3));
}

TEST(EnvelopeTest, ContainsAndIntersects) {
  const Envelope e(0, 0, 10, 5);
  EXPECT_TRUE(e.Contains(Point(0, 0)));
  EXPECT_TRUE(e.Contains(Point(10, 5)));
  EXPECT_FALSE(e.Contains(Point(10.001, 5)));
  EXPECT_TRUE(e.Intersects(Envelope(10, 5, 20, 20)));  // Corner touch.
  EXPECT_FALSE(e.Intersects(Envelope(11, 0, 20, 5)));
  EXPECT_TRUE(e.Contains(Envelope(1, 1, 2, 2)));
  EXPECT_FALSE(e.Contains(Envelope(1, 1, 11, 2)));
}

TEST(EnvelopeTest, HalfOpenContains) {
  const Envelope e(0, 0, 10, 10);
  EXPECT_TRUE(e.ContainsHalfOpen(Point(0, 0)));
  EXPECT_FALSE(e.ContainsHalfOpen(Point(10, 5)));
  EXPECT_FALSE(e.ContainsHalfOpen(Point(5, 10)));
  EXPECT_TRUE(e.ContainsHalfOpen(Point(10, 5), /*is_right_edge=*/true));
  EXPECT_TRUE(e.ContainsHalfOpen(Point(5, 10), false, /*is_top_edge=*/true));
}

TEST(EnvelopeTest, IntersectionGeometry) {
  const Envelope a(0, 0, 10, 10);
  const Envelope b(5, 5, 20, 20);
  EXPECT_EQ(a.Intersection(b), Envelope(5, 5, 10, 10));
  EXPECT_TRUE(a.Intersection(Envelope(11, 11, 12, 12)).IsEmpty());
}

TEST(EnvelopeTest, MinMaxDistances) {
  const Envelope e(0, 0, 10, 10);
  EXPECT_DOUBLE_EQ(e.MinDistance(Point(5, 5)), 0.0);
  EXPECT_DOUBLE_EQ(e.MinDistance(Point(13, 14)), 5.0);
  EXPECT_DOUBLE_EQ(e.MaxDistance(Point(0, 0)),
                   Distance(Point(0, 0), Point(10, 10)));
  const Envelope far(20, 0, 30, 10);
  EXPECT_DOUBLE_EQ(e.MinDistance(far), 10.0);
  EXPECT_DOUBLE_EQ(e.MaxDistance(far), Distance(Point(0, 0), Point(30, 10)));
  // Overlapping envelopes: min distance zero.
  EXPECT_DOUBLE_EQ(e.MinDistance(Envelope(5, 5, 15, 15)), 0.0);
}

TEST(SegmentTest, IntersectionTests) {
  EXPECT_TRUE(SegmentsIntersect(Segment({0, 0}, {10, 10}),
                                Segment({0, 10}, {10, 0})));
  EXPECT_FALSE(SegmentsIntersect(Segment({0, 0}, {1, 1}),
                                 Segment({2, 2}, {3, 1})));
  // Shared endpoint counts as intersecting.
  EXPECT_TRUE(SegmentsIntersect(Segment({0, 0}, {1, 1}),
                                Segment({1, 1}, {2, 0})));
  // Collinear overlap.
  EXPECT_TRUE(SegmentsIntersect(Segment({0, 0}, {4, 0}),
                                Segment({2, 0}, {6, 0})));

  auto p = SegmentIntersection(Segment({0, 0}, {10, 10}),
                               Segment({0, 10}, {10, 0}));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(*p, Point(5, 5));
  EXPECT_FALSE(SegmentIntersection(Segment({0, 0}, {1, 0}),
                                   Segment({0, 1}, {1, 1}))
                   .has_value());  // Parallel.
}

TEST(SegmentTest, PointSegmentDistance) {
  const Segment s({0, 0}, {10, 0});
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point(5, 3), s), 3.0);
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point(-3, 4), s), 5.0);
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point(5, 0), s), 0.0);
  // Degenerate segment.
  EXPECT_DOUBLE_EQ(PointSegmentDistance(Point(3, 4), Segment({0, 0}, {0, 0})),
                   5.0);
}

TEST(PolygonTest, AreaAndOrientation) {
  Polygon square({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  EXPECT_DOUBLE_EQ(square.SignedArea(), 16.0);
  EXPECT_DOUBLE_EQ(square.Perimeter(), 16.0);
  Polygon clockwise({{0, 0}, {0, 4}, {4, 4}, {4, 0}});
  EXPECT_DOUBLE_EQ(clockwise.SignedArea(), -16.0);
  clockwise.Normalize();
  EXPECT_DOUBLE_EQ(clockwise.SignedArea(), 16.0);
}

TEST(PolygonTest, Containment) {
  const Polygon tri({{0, 0}, {10, 0}, {5, 10}});
  EXPECT_TRUE(tri.Contains(Point(5, 2)));
  EXPECT_TRUE(tri.Contains(Point(0, 0)));     // Vertex.
  EXPECT_TRUE(tri.Contains(Point(5, 0)));     // Edge.
  EXPECT_FALSE(tri.Contains(Point(0, 5)));
  EXPECT_TRUE(tri.ContainsInterior(Point(5, 2)));
  EXPECT_FALSE(tri.ContainsInterior(Point(0, 0)));
}

TEST(PolygonTest, IntersectionCases) {
  const Polygon a({{0, 0}, {4, 0}, {4, 4}, {0, 4}});
  const Polygon b({{2, 2}, {6, 2}, {6, 6}, {2, 6}});    // Overlaps a.
  const Polygon c({{10, 10}, {12, 10}, {11, 12}});      // Disjoint.
  const Polygon d({{1, 1}, {2, 1}, {2, 2}, {1, 2}});    // Inside a.
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Intersects(d));  // Containment counts.
  EXPECT_TRUE(d.Intersects(a));
}

TEST(PolygonTest, BoundsAreTheRingMbrThroughCopyMoveAndNormalize) {
  Polygon poly({{3, -1}, {5, 7}, {-2, 4}, {1, 2.5}});
  const Envelope mbr(-2, -1, 5, 7);
  EXPECT_EQ(poly.Bounds(), mbr);
  const Polygon copy = poly;
  EXPECT_EQ(copy.Bounds(), mbr);
  Polygon assigned({{0, 0}, {1, 0}, {0, 1}});
  assigned = std::move(poly);
  EXPECT_EQ(assigned.Bounds(), mbr);

  // A clockwise ring whose x range starts at +0.0 and then visits -0.0:
  // the box keeps the first zero it meets, in the ring's current order.
  Polygon clockwise({{0.0, 0}, {-0.0, 4}, {6, 4}, {6, 0}});
  ASSERT_LT(clockwise.SignedArea(), 0.0);
  EXPECT_EQ(clockwise.Bounds(), Envelope(0, 0, 6, 4));
  EXPECT_FALSE(std::signbit(clockwise.Bounds().min_x()));
  clockwise.Normalize();
  ASSERT_GT(clockwise.SignedArea(), 0.0);
  EXPECT_EQ(clockwise.Bounds(), Envelope(0, 0, 6, 4));
  EXPECT_TRUE(std::signbit(clockwise.Bounds().min_x()));

  EXPECT_TRUE(Polygon().Bounds().IsEmpty());
  EXPECT_TRUE(Polygon({{1, 1}, {2, 2}}).IsEmpty());
}

TEST(PolygonClipTest, ClipSquareToBox) {
  const Polygon square({{0, 0}, {10, 0}, {10, 10}, {0, 10}});
  const Polygon clipped = ClipPolygonToBox(square, Envelope(5, 5, 20, 20));
  EXPECT_DOUBLE_EQ(clipped.Area(), 25.0);
  EXPECT_EQ(clipped.Bounds(), Envelope(5, 5, 10, 10));
}

TEST(PolygonClipTest, DisjointClipIsEmpty) {
  const Polygon square({{0, 0}, {1, 0}, {1, 1}, {0, 1}});
  EXPECT_TRUE(ClipPolygonToBox(square, Envelope(5, 5, 6, 6)).IsEmpty());
}

TEST(PolygonClipTest, ContainedPolygonUnchanged) {
  const Polygon tri({{1, 1}, {3, 1}, {2, 3}});
  const Polygon clipped = ClipPolygonToBox(tri, Envelope(0, 0, 10, 10));
  EXPECT_DOUBLE_EQ(clipped.Area(), tri.Area());
}

TEST(SegmentClipTest, LiangBarsky) {
  const Envelope box(0, 0, 10, 10);
  auto inside = ClipSegmentToBox(Segment({1, 1}, {2, 2}), box);
  ASSERT_TRUE(inside.has_value());
  EXPECT_EQ(*inside, Segment({1, 1}, {2, 2}));

  auto crossing = ClipSegmentToBox(Segment({-5, 5}, {15, 5}), box);
  ASSERT_TRUE(crossing.has_value());
  EXPECT_EQ(*crossing, Segment({0, 5}, {10, 5}));

  EXPECT_FALSE(ClipSegmentToBox(Segment({-5, -5}, {-1, -1}), box).has_value());
  // Touching only a corner degenerates to a point: rejected.
  EXPECT_FALSE(
      ClipSegmentToBox(Segment({-1, 1}, {1, -1}), box).has_value());
}

TEST(SimplifyTest, DropsNearCollinearVertices) {
  // A straight line with tiny wiggles collapses to its endpoints.
  std::vector<Point> wiggly;
  for (int i = 0; i <= 100; ++i) {
    wiggly.emplace_back(i, (i % 2) * 0.001);
  }
  const auto simplified = SimplifyPolyline(wiggly, 0.01);
  ASSERT_EQ(simplified.size(), 2u);
  EXPECT_EQ(simplified.front(), wiggly.front());
  EXPECT_EQ(simplified.back(), wiggly.back());
}

TEST(SimplifyTest, KeepsSignificantVertices) {
  const std::vector<Point> zigzag = {{0, 0}, {5, 10}, {10, 0}};
  EXPECT_EQ(SimplifyPolyline(zigzag, 1.0), zigzag);
  // Zero tolerance is the identity.
  EXPECT_EQ(SimplifyPolyline(zigzag, 0.0), zigzag);
}

TEST(SimplifyTest, ErrorIsBoundedByTolerance) {
  // Every dropped vertex of a dense arc is within tolerance of the
  // simplified polyline.
  std::vector<Point> arc;
  for (int i = 0; i <= 200; ++i) {
    const double angle = M_PI * i / 200;
    arc.emplace_back(std::cos(angle) * 100, std::sin(angle) * 100);
  }
  const double tolerance = 2.0;
  const auto simplified = SimplifyPolyline(arc, tolerance);
  EXPECT_LT(simplified.size(), arc.size() / 2);
  for (const Point& p : arc) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i + 1 < simplified.size(); ++i) {
      best = std::min(best, PointSegmentDistance(
                                p, Segment(simplified[i], simplified[i + 1])));
    }
    EXPECT_LE(best, tolerance + 1e-9);
  }
}

TEST(SimplifyTest, PolygonStaysClosedAndRetainsArea) {
  // A dense circle simplifies to a much smaller ring with similar area.
  Polygon circle = MakeRegularPolygon(Point(0, 0), 100, 256);
  const Polygon simplified = SimplifyPolygon(circle, 1.0);
  EXPECT_LT(simplified.NumVertices(), circle.NumVertices() / 2);
  EXPECT_GE(simplified.NumVertices(), 3u);
  EXPECT_NEAR(simplified.Area(), circle.Area(), circle.Area() * 0.05);
  // Tiny polygons and zero tolerance pass through unchanged.
  const Polygon tri({{0, 0}, {1, 0}, {0, 1}});
  EXPECT_EQ(SimplifyPolygon(tri, 10.0), tri);
  EXPECT_EQ(SimplifyPolygon(circle, 0.0), circle);
}

TEST(WktTest, PointRoundTrip) {
  const Point p(1.5, -2.25);
  EXPECT_EQ(ParsePointWkt(ToWkt(p)).ValueOrDie(), p);
  EXPECT_EQ(ParsePointWkt("point( 3 4 )").ValueOrDie(), Point(3, 4));
  EXPECT_FALSE(ParsePointWkt("POINT 1 2").ok());
  EXPECT_FALSE(ParsePointWkt("POINT (1)").ok());
}

TEST(WktTest, PolygonRoundTrip) {
  const Polygon tri({{0, 0}, {4, 0}, {2, 3}});
  const Polygon parsed = ParsePolygonWkt(ToWkt(tri)).ValueOrDie();
  EXPECT_EQ(parsed, tri);
  EXPECT_FALSE(ParsePolygonWkt("POLYGON ((0 0, 1 1))").ok());
  EXPECT_FALSE(
      ParsePolygonWkt("POLYGON ((0 0,4 0,4 4,0 4),(1 1,2 1,2 2))").ok())
      << "holes are rejected";
}

TEST(WktTest, LineStringRoundTrip) {
  const std::vector<Point> pts = {{0, 0}, {1, 2}, {3, 4}};
  EXPECT_EQ(ParseLineStringWkt(LineStringToWkt(pts)).ValueOrDie(), pts);
  EXPECT_FALSE(ParseLineStringWkt("LINESTRING (1 2)").ok());
}

TEST(WktTest, CsvCodecs) {
  const Point p(123.456, -7.0);
  EXPECT_EQ(ParsePointCsv(PointToCsv(p)).ValueOrDie(), p);
  const Envelope e(1, 2, 3, 4);
  EXPECT_EQ(ParseEnvelopeCsv(EnvelopeToCsv(e)).ValueOrDie(), e);
  EXPECT_FALSE(ParsePointCsv("1").ok());
  EXPECT_FALSE(ParseEnvelopeCsv("1,2,3").ok());
  EXPECT_FALSE(ParseEnvelopeCsv("3,2,1,4").ok()) << "inverted bounds";
}

// ---------------------------------------------------------------------
// The one-pass WKT scanner against the scanner it replaced.

namespace oracle {

// The WKT parser as it stood before the one-pass scanner, kept as the
// reference: a libc std::isspace call per byte, a find_first_of per
// coordinate pair, a token split, and ParseDouble stripping each token
// again.

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

Result<double> ParseDouble(std::string_view text) {
  text = StripWhitespace(text);
  if (text.empty()) return Status::ParseError("empty numeric field");
  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::ParseError("invalid double: '" + std::string(text) + "'");
  }
  return value;
}

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

bool IsAsciiSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}

Result<std::vector<Point>> ParseCoordinateList(std::string_view& text) {
  std::vector<Point> points;
  for (;;) {
    text = StripWhitespace(text);
    size_t end = text.find_first_of(",)");
    if (end == std::string_view::npos) {
      return Status::ParseError("unterminated coordinate list in WKT");
    }
    const std::string_view pair = text.substr(0, end);
    std::string_view tokens[2];
    int count = 0;
    size_t i = 0;
    while (i < pair.size()) {
      while (i < pair.size() && IsAsciiSpace(pair[i])) ++i;
      const size_t start = i;
      while (i < pair.size() && !IsAsciiSpace(pair[i])) ++i;
      if (i == start) break;  // Only trailing whitespace remained.
      if (count < 2) tokens[count] = pair.substr(start, i - start);
      ++count;
    }
    if (count != 2) {
      return Status::ParseError("expected 'x y' coordinate in WKT, got '" +
                                std::string(pair) + "'");
    }
    SHADOOP_ASSIGN_OR_RETURN(double x, ParseDouble(tokens[0]));
    SHADOOP_ASSIGN_OR_RETURN(double y, ParseDouble(tokens[1]));
    points.emplace_back(x, y);
    const char delim = text[end];
    text.remove_prefix(end + 1);
    if (delim == ')') break;
  }
  return points;
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

Result<Polygon> ParsePolygonWkt(std::string_view text) {
  SHADOOP_RETURN_NOT_OK(ExpectKeyword(text, "POLYGON"));
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, '('));
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, '('));
  SHADOOP_ASSIGN_OR_RETURN(std::vector<Point> ring, ParseCoordinateList(text));
  text = StripWhitespace(text);
  if (!text.empty() && text.front() == ',') {
    return Status::ParseError("polygons with holes are not supported");
  }
  SHADOOP_RETURN_NOT_OK(ExpectChar(text, ')'));
  if (ring.size() >= 2 && ring.front() == ring.back()) ring.pop_back();
  if (ring.size() < 3) {
    return Status::ParseError("POLYGON ring needs at least 3 distinct points");
  }
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

}  // namespace oracle

/// A run of ASCII space bytes drawn from all six of them.
std::string Blanks(Random& rng, uint32_t min_len) {
  static constexpr std::string_view kSpaces = " \t\n\v\f\r";
  std::string out;
  const uint32_t len = min_len + rng.NextUint32(3);
  for (uint32_t i = 0; i < len; ++i) {
    out.push_back(kSpaces[rng.NextUint32(kSpaces.size())]);
  }
  return out;
}

/// A coordinate: mostly integral, decimal, exponent or signed text, and
/// one time in eight a special form, some of which from_chars rejects.
std::string Number(Random& rng) {
  static const char* const kSpecial[] = {
      "inf", "-inf", "nan", "nan(1)", "1e999", "0x1p3", "INF", "NaN",
      "-0",  "+1",   ".5",  "5.",     "1e-999", "007", "4.9e-324",
      "1.7976931348623157e308", "-", "e5", "1e", "--1"};
  switch (rng.NextUint32(8)) {
    case 0:
    case 1:  // Integral.
      return std::to_string(static_cast<int64_t>(rng.NextUint64(2000001)) -
                            1000000);
    case 2:
    case 3:  // Decimal.
      return std::to_string(rng.NextUint32(100000)) + "." +
             std::to_string(rng.NextUint32(1000000));
    case 4:  // Exponent, either case, signed or not.
      return std::to_string(rng.NextUint32(1000)) + "." +
             std::to_string(rng.NextUint32(1000)) +
             (rng.NextBool() ? "e" : "E") + (rng.NextBool() ? "-" : "") +
             std::to_string(rng.NextUint32(300));
    case 5:
    case 6:  // Signed round-trip text.
      return FormatDouble(rng.NextDouble(-1e9, 1e9));
    default:
      return kSpecial[rng.NextUint32(std::size(kSpecial))];
  }
}

std::string Keyword(Random& rng, std::string_view keyword) {
  std::string out(keyword);
  for (char& c : out) {
    if (rng.NextBool(0.2)) c = static_cast<char>(std::tolower(c));
  }
  return out;
}

/// A WKT geometry: POINT, LINESTRING or POLYGON, with random spacing.
std::string Geometry(Random& rng) {
  const uint32_t kind = rng.NextUint32(3);
  std::string text = Blanks(rng, 0);
  text += Keyword(rng, kind == 0 ? "POINT" : kind == 1 ? "LINESTRING"
                                                       : "POLYGON");
  text += Blanks(rng, 0) + "(" + Blanks(rng, 0);
  if (kind == 2) text += "(";
  // Mostly a valid count for the kind; sometimes one short or long.
  const uint32_t n = kind == 0   ? (rng.NextBool(0.9) ? 1 : 2)
                     : kind == 1 ? 1 + rng.NextUint32(6)
                                 : 2 + rng.NextUint32(7);
  std::string first;
  for (uint32_t i = 0; i < n; ++i) {
    const std::string pair = Blanks(rng, 0) + Number(rng) + Blanks(rng, 1) +
                             Number(rng) + Blanks(rng, 0);
    if (i == 0) first = pair;
    if (i > 0) text += ",";
    text += pair;
  }
  if (kind == 2 && rng.NextBool(0.7)) text += "," + first;  // Close the ring.
  text += ")";
  if (kind == 2) text += Blanks(rng, 0) + ")";
  return text + Blanks(rng, 0);
}

/// `text` with one byte inserted, deleted or replaced, or truncated.
std::string Mutate(Random& rng, std::string text) {
  // Bytes the scanner treats specially, NUL, and bytes above 0x7f that
  // some locales (not "C") count as space; else any byte.
  static constexpr char kBytes[] =
      " \t\n\v\f\r,()-+.eE0123456789xpnaif\0\x80\xa0\x85";
  const auto byte = [&] {
    return rng.NextBool() ? kBytes[rng.NextUint32(sizeof(kBytes) - 1)]
                          : static_cast<char>(rng.NextUint32(256));
  };
  const size_t pos = rng.NextUint64(text.size() + 1);
  switch (rng.NextUint32(4)) {
    case 0:
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos), byte());
      break;
    case 1:
      if (pos < text.size()) text.erase(pos, 1);
      break;
    case 2:
      if (pos < text.size()) text[pos] = byte();
      break;
    default:
      text.resize(pos);
      break;
  }
  return text;
}

bool SamePoints(const std::vector<Point>& a, const std::vector<Point>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<uint64_t>(a[i].x) != std::bit_cast<uint64_t>(b[i].x) ||
        std::bit_cast<uint64_t>(a[i].y) != std::bit_cast<uint64_t>(b[i].y)) {
      return false;
    }
  }
  return true;
}

/// Same points bit for bit, or the same Status code and message.
template <typename T, typename ToPoints>
bool SameOutcome(const Result<T>& got, const Result<T>& want,
                 ToPoints to_points) {
  if (got.ok() != want.ok()) return false;
  if (!want.ok()) {
    return got.status().code() == want.status().code() &&
           got.status().message() == want.status().message();
  }
  return SamePoints(to_points(got.value()), to_points(want.value()));
}

TEST(WktTest, WktScannerMatchesOracle) {
  constexpr int kValid = 40000;
  constexpr int kMutated = 60000;
  Random rng(0x3c1d);
  std::vector<std::string> corpus;
  corpus.reserve(kValid + kMutated);
  for (int i = 0; i < kValid; ++i) corpus.push_back(Geometry(rng));
  for (int i = 0; i < kMutated; ++i) {
    std::string text = Geometry(rng);
    const uint32_t edits = 1 + rng.NextUint32(3);
    for (uint32_t e = 0; e < edits; ++e) text = Mutate(rng, std::move(text));
    corpus.push_back(std::move(text));
  }

  const auto point = [](const Point& p) { return std::vector<Point>{p}; };
  const auto ring = [](const Polygon& poly) { return poly.ring(); };
  const auto line = [](const std::vector<Point>& pts) { return pts; };
  // The append form writes after whatever rings its buffer already holds.
  const std::vector<std::vector<Point>> prefixes = {
      {},
      {{0, 0}, {1, 0}, {0, 1}},
      {{5, 5}, {6, 5}, {-0.0, 6}, {1, 1}, {2, 1}}};
  int mismatches = 0;
  int parsed = 0;
  for (size_t k = 0; k < corpus.size(); ++k) {
    const std::string& text = corpus[k];
    const auto polygon = ParsePolygonWkt(text);
    const auto pt = ParsePointWkt(text);
    const auto linestring = ParseLineStringWkt(text);
    parsed += polygon.ok() + pt.ok() + linestring.ok();
    const Result<Polygon> want = oracle::ParsePolygonWkt(text);
    const std::vector<Point>& prefix = prefixes[k % prefixes.size()];
    std::vector<Point> buffer = prefix;
    const Status appended = AppendPolygonWkt(text, &buffer);
    // The same Status, and after it the prefix alone or followed by the
    // oracle's ring.
    std::vector<Point> expected = prefix;
    if (want.ok()) {
      expected.insert(expected.end(), want.value().ring().begin(),
                      want.value().ring().end());
    }
    const bool same_append =
        appended.ok() == want.ok() && SamePoints(buffer, expected) &&
        (want.ok() || (appended.code() == want.status().code() &&
                       appended.message() == want.status().message()));
    const bool same =
        SameOutcome(polygon, want, ring) &&
        SameOutcome(pt, oracle::ParsePointWkt(text), point) &&
        SameOutcome(linestring, oracle::ParseLineStringWkt(text), line);
    if (!same && ++mismatches <= 5) {
      ADD_FAILURE() << "scanner and oracle disagree on '" << text << "'";
    }
    if (!same_append && ++mismatches <= 5) {
      ADD_FAILURE() << "append form and oracle disagree on '" << text << "'";
    }
  }
  EXPECT_EQ(mismatches, 0);
  // Both outcomes come in bulk (at most one parser accepts an input).
  EXPECT_GT(parsed, 20000);
  EXPECT_GT(static_cast<int>(corpus.size()) - parsed, 20000);
}

// ---------------------------------------------------------------------
// The ring-view predicates against the Polygon predicates they replaced.

namespace oracle {

// Polygon::Contains, ContainsInterior and Intersects as they stood before
// ring views: Intersects rebuilt the other ring's edge-box lanes for
// every pair and tested every edge pair through the batch kernel.

bool EvenOddInside(const std::vector<Point>& ring, const Point& p) {
  bool inside = false;
  for (size_t i = 0, j = ring.size() - 1; i < ring.size(); j = i++) {
    const Point& a = ring[i];
    const Point& b = ring[j];
    if ((a.y > p.y) != (b.y > p.y)) {
      const double x_cross = (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x;
      if (p.x < x_cross) inside = !inside;
    }
  }
  return inside;
}

bool OnBoundary(const std::vector<Point>& ring, const Point& p) {
  for (size_t i = 0; i < ring.size(); ++i) {
    const Segment edge(ring[i], ring[(i + 1) % ring.size()]);
    if (PointSegmentDistance(p, edge) == 0.0) return true;
  }
  return false;
}

bool Contains(const Polygon& poly, const Point& p) {
  if (poly.IsEmpty()) return false;
  if (!poly.Bounds().Contains(p)) return false;
  return OnBoundary(poly.ring(), p) || EvenOddInside(poly.ring(), p);
}

bool ContainsInterior(const Polygon& poly, const Point& p) {
  if (poly.IsEmpty()) return false;
  if (!poly.Bounds().Contains(p)) return false;
  return !OnBoundary(poly.ring(), p) && EvenOddInside(poly.ring(), p);
}

bool Intersects(const Polygon& self, const Polygon& other) {
  if (self.IsEmpty() || other.IsEmpty()) return false;
  if (!self.Bounds().Intersects(other.Bounds())) return false;
  const std::vector<Point>& ring = self.ring();
  const size_t na = ring.size();
  const size_t nb = other.ring().size();
  thread_local std::vector<double> b_min_x, b_min_y, b_max_x, b_max_y;
  thread_local std::vector<uint64_t> hit_bits;
  b_min_x.resize(nb);
  b_min_y.resize(nb);
  b_max_x.resize(nb);
  b_max_y.resize(nb);
  hit_bits.resize(simd::BitmapWords(nb));
  for (size_t j = 0; j < nb; ++j) {
    const Point& t0 = other.ring()[j];
    const Point& t1 = other.ring()[(j + 1) % nb];
    b_min_x[j] = std::min(t0.x, t1.x);
    b_min_y[j] = std::min(t0.y, t1.y);
    b_max_x[j] = std::max(t0.x, t1.x);
    b_max_y[j] = std::max(t0.y, t1.y);
  }
  const simd::BoxLanes lanes{b_min_x.data(), b_min_y.data(), b_max_x.data(),
                             b_max_y.data()};
  const simd::detail::KernelTable& kernels = simd::ActiveKernels();
  for (size_t i = 0; i < na; ++i) {
    const Point& s0 = ring[i];
    const Point& s1 = ring[(i + 1) % na];
    const Segment s(s0, s1);
    const size_t hits = kernels.intersect_box_bitmap(
        lanes, nb, std::min(s0.x, s1.x), std::min(s0.y, s1.y),
        std::max(s0.x, s1.x), std::max(s0.y, s1.y), hit_bits.data());
    if (hits == 0) continue;
    for (size_t w = 0; w < hit_bits.size(); ++w) {
      uint64_t word = hit_bits[w];
      while (word != 0) {
        const size_t j = w * 64 + static_cast<size_t>(std::countr_zero(word));
        word &= word - 1;
        const Segment t(other.ring()[j], other.ring()[(j + 1) % nb]);
        if (SegmentsIntersect(s, t)) return true;
      }
    }
  }
  return Contains(self, other.ring().front()) ||
         Contains(other, ring.front());
}

}  // namespace oracle

/// Compares every predicate of `a` and `b`, both ways, with the oracle:
/// the intersection test, and containment of up to 8 vertices of each
/// ring, of its first edge's midpoint and of `probe`. Returns false on
/// any difference, after reporting it.
bool SamePredicates(const Polygon& a, const Polygon& b, const Point& probe,
                    bool* intersects = nullptr) {
  bool same = true;
  const auto check = [&same](bool got, bool want, const char* what) {
    if (got != want) {
      ADD_FAILURE() << what << ": view " << got << ", oracle " << want;
      same = false;
    }
  };
  const bool ab = RingsIntersect(a.View(), b.View());
  check(ab, oracle::Intersects(a, b), "a intersects b");
  check(RingsIntersect(b.View(), a.View()), oracle::Intersects(b, a),
        "b intersects a");
  check(a.Intersects(b), ab, "Polygon::Intersects");
  for (const Polygon* poly : {&a, &b}) {
    std::vector<Point> probes = {probe};
    for (const Polygon* other : {&a, &b}) {
      const size_t n = other->NumVertices();
      for (size_t v = 0; v < n; v += (n + 7) / 8) {
        probes.push_back(other->ring()[v]);
      }
      if (n >= 2) {
        probes.push_back(
            Segment(other->ring()[0], other->ring()[1]).Midpoint());
      }
    }
    for (const Point& p : probes) {
      check(RingContains(poly->View(), p), oracle::Contains(*poly, p),
            "contains");
      check(RingContainsInterior(poly->View(), p),
            oracle::ContainsInterior(*poly, p), "contains interior");
    }
  }
  if (intersects != nullptr) *intersects = ab;
  return same;
}

/// A star-convex ring like the benchmark's join polygons: `n` vertices
/// at jittered angles around `center`, radii in [radius / 2, radius].
/// With `grid` > 0 every vertex snaps to a multiple of it, so rings touch,
/// share vertices and run along each other's edges.
std::vector<Point> StarRing(Random& rng, const Point& center, double radius,
                            int n, double grid) {
  std::vector<Point> ring;
  for (int v = 0; v < n; ++v) {
    const double angle = 2.0 * M_PI * (v + 0.8 * rng.NextDouble()) / n;
    const double r = radius * (0.5 + 0.5 * rng.NextDouble());
    Point p(center.x + r * std::cos(angle), center.y + r * std::sin(angle));
    if (grid > 0) {
      p = Point(std::round(p.x / grid) * grid, std::round(p.y / grid) * grid);
    }
    ring.push_back(p);
  }
  return ring;
}

TEST(RingViewTest, SeededStarPairsMatchTheOracle) {
  constexpr int kPairs = 100000;
  Random rng(0x57a2);
  const auto vertices = [&rng] {
    const uint32_t size = rng.NextUint32(100);
    if (size < 2) return 65 + static_cast<int>(rng.NextUint32(200));
    if (size < 12) return 13 + static_cast<int>(rng.NextUint32(52));
    return 3 + static_cast<int>(rng.NextUint32(10));
  };
  // Draws in a fixed order (braced lists evaluate left to right).
  const auto star = [&rng, &vertices](double grid) {
    const Point center{rng.NextDouble(0, 10), rng.NextDouble(0, 10)};
    const double radius = rng.NextDouble(0.5, 3);
    const int n = vertices();
    return StarRing(rng, center, radius, n, grid);
  };
  int overlapping = 0;
  int intersecting = 0;
  int failures = 0;
  for (int k = 0; k < kPairs && failures < 5; ++k) {
    const double grid = rng.NextBool() ? 0.0 : 0.5 * (1 + rng.NextUint32(2));
    const Polygon a(star(grid));
    std::vector<Point> ring_b = star(grid);
    if (rng.NextBool(0.1)) {
      // Borrow a run of a's vertices: shared vertices and edges.
      const size_t from = rng.NextUint32(a.NumVertices());
      const size_t count = 1 + rng.NextUint32(a.NumVertices());
      for (size_t v = 0; v < count; ++v) {
        ring_b[v % ring_b.size()] = a.ring()[(from + v) % a.NumVertices()];
      }
    }
    const Polygon b(std::move(ring_b));
    const Point probe{rng.NextDouble(0, 10), rng.NextDouble(0, 10)};
    bool intersects = false;
    if (!SamePredicates(a, b, probe, &intersects)) {
      ++failures;
      ADD_FAILURE() << "pair " << k;
    }
    overlapping += a.Bounds().Intersects(b.Bounds());
    intersecting += intersects;
  }
  EXPECT_EQ(failures, 0);
  // Both answers come in bulk among the pairs the refine sees.
  EXPECT_GT(intersecting, kPairs / 5);
  EXPECT_GT(overlapping - intersecting, kPairs / 20);
}

TEST(RingViewTest, CraftedCasesMatchTheOracle) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double huge = std::numeric_limits<double>::max();
  struct Case {
    const char* name;
    std::vector<Point> a;
    std::vector<Point> b;
    int expect;  // 1 or 0; -1 when only the oracle decides.
  };
  std::vector<Case> cases = {
      // No ring's first vertex lies on the other ring, so the edge loop
      // alone must find each contact.
      {"touch at one vertex", {{0, 0}, {1, 0}, {1, 1}, {0, 1}},
       {{2, 1}, {2, 2}, {1, 2}, {1, 1}}, 1},
      {"vertex on an edge", {{0, 0}, {2, 0}, {2, 2}, {0, 2}},
       {{3, 0}, {3, 2}, {2, 1}}, 1},
      {"collinear overlapping edges", {{0, 1}, {0, 0}, {2, 0}, {2, 1}},
       {{1, -1}, {3, -1}, {3, 0}, {1, 0}}, 1},
      {"shared vertices", {{0, 0}, {4, 0}, {4, 4}, {0, 4}},
       {{8, 2}, {4, 4}, {4, 0}}, 1},
      {"b nested in a", {{0, 0}, {10, 0}, {10, 10}, {0, 10}},
       {{4, 4}, {6, 4}, {6, 6}, {4, 6}}, 1},
      {"a nested in b", {{4, 4}, {6, 4}, {6, 6}, {4, 6}},
       {{0, 0}, {10, 0}, {10, 10}, {0, 10}}, 1},
      {"identical rings", {{0, 0}, {3, 1}, {1, 4}}, {{0, 0}, {3, 1}, {1, 4}},
       1},
      {"vertex in the other's MBR, outside its ring",
       {{0, 0}, {10, 0}, {0, 10}}, {{8, 8}, {9, 8}, {9, 9}}, 0},
      {"thin triangles in one box", {{0, 0}, {10, 0}, {0, 1}},
       {{10, 10}, {0, 10}, {10, 9}}, 0},
      {"MBRs touch at a corner only", {{0, 0}, {1, 0}, {0, 1}},
       {{1, 1}, {2, 1}, {2, 2}}, 0},
      {"NaN vertex", {{0, 0}, {4, 0}, {nan, 2}, {4, 4}, {0, 4}},
       {{3, 1}, {6, 1}, {6, 3}}, -1},
      {"NaN first vertex", {{nan, nan}, {4, 0}, {4, 4}, {0, 4}},
       {{3, 1}, {6, 1}, {6, 3}}, -1},
      {"NaN x only", {{0, 0}, {4, 0}, {4, 4}, {nan, 4}},
       {{-1, 3}, {1, 3}, {1, 5}}, -1},
      {"all NaN", {{nan, nan}, {nan, nan}, {nan, nan}},
       {{0, 0}, {1, 0}, {0, 1}}, -1},
      {"infinite vertices", {{-inf, 0}, {inf, 0}, {0, 5}},
       {{0, -1}, {1, 1}, {-1, 1}}, -1},
      {"infinite bounds", {{0, 0}, {inf, 0}, {inf, inf}, {0, inf}},
       {{1, 1}, {2, 1}, {2, 2}}, -1},
      {"huge coordinates", {{-huge, -huge}, {huge, -huge}, {huge, huge}},
       {{0, 0}, {1, 0}, {0, 1}}, -1},
      {"huge touching", {{0, 0}, {huge, 0}, {huge, huge}},
       {{huge, huge}, {huge, 2 * 1e307}, {1e307, huge}}, -1},
  };
  // Rings of 3, 65 and 256 vertices: crossing, nested, and apart inside
  // overlapping MBRs, at every pairing of sizes.
  for (int na : {3, 65, 256}) {
    for (int nb : {3, 65, 256}) {
      const Polygon a = MakeRegularPolygon({0, 0}, 10, na);
      cases.push_back({"regular, crossing", a.ring(),
                       MakeRegularPolygon({12, 3}, 5, nb).ring(), 1});
      cases.push_back({"regular, nested", a.ring(),
                       MakeRegularPolygon({1, 1}, 2, nb).ring(), 1});
      cases.push_back({"regular, apart", a.ring(),
                       MakeRegularPolygon({9.5, 9.5}, 1, nb).ring(), -1});
      Random rng(static_cast<uint64_t>(na * 1000 + nb));
      cases.push_back({"star", StarRing(rng, {0, 0}, 10, na, 0),
                       StarRing(rng, {4, 4}, 10, nb, 0), -1});
    }
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const Polygon a(c.a);
    const Polygon b(c.b);
    bool intersects = false;
    EXPECT_TRUE(SamePredicates(a, b, Point(0.5, 0.5), &intersects));
    if (c.expect >= 0) {
      EXPECT_EQ(intersects, c.expect == 1);
    }
  }
}

TEST(RingViewTest, EdgeMeetsIsTheClosedBoxTest) {
  // Coordinates on a small grid, so edges often touch the window exactly.
  Random rng(0xed6e);
  const auto coordinate = [&rng] {
    return static_cast<double>(rng.NextUint32(5));
  };
  int meets = 0;
  for (int k = 0; k < 20000; ++k) {
    const Polygon poly({{coordinate(), coordinate()},
                        {coordinate(), coordinate()},
                        {coordinate(), coordinate()}});
    Envelope window = Envelope::FromPoint({coordinate(), coordinate()});
    window.ExpandToInclude(Point{coordinate(), coordinate()});
    const RingView view = poly.View();
    for (size_t i = 0; i < view.ring.size(); ++i) {
      const bool want = view.Edge(i).Bounds().Intersects(window);
      ASSERT_EQ(view.EdgeMeets(i, window), want)
          << "edge " << i << " of ring " << k;
      meets += want;
    }
  }
  EXPECT_GT(meets, 10000);
  EXPECT_LT(meets, 50000);
  // A NaN endpoint leaves a NaN component when it comes first.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Polygon poly({{nan, 0}, {1, 1}, {0, 1}});
  const Envelope everything(-1e300, -1e300, 1e300, 1e300);
  EXPECT_FALSE(poly.View().EdgeMeets(0, everything));
  EXPECT_TRUE(poly.View().EdgeMeets(1, everything));
}

}  // namespace
}  // namespace shadoop
